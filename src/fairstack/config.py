"""Experiment configuration: one JSON file drives every CLI command.

Every config key is declared once, as a field of :class:`ExperimentConfig`:
its dotted key, type, default and bound. The parser, ``to_dict`` and the
README key list (:func:`describe_keys`) are all derived from those fields.

Unknown keys are rejected with their full dotted path, so typos fail loudly
instead of silently running defaults.
"""

import dataclasses
import hashlib
import json
import math
import os
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, load_adult, load_german, make_synthetic
from .downstream import ProbeSpec
from .forest import ForestSpec
from .metrics import EO_MODES
from .model import CRITERIA, LevelSpec, StackSpec, vanilla_spec
from .training import TrainConfig

DATA_DIR_ENV = "FAIRSTACK_DATA_DIR"
DATASET_IDS = ("adult", "german", "synthetic")


class ConfigError(ValueError):
    """A config file is malformed; the message carries the offending key path."""


# ---------------------------------------------------------------------------
# Validation helpers — every error names the dotted path of the bad key.


def _reject_unknown(d: dict, allowed, path: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown config key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(f'{path}.{k}' if path else k) for k in unknown)}; "
            f"allowed here: {', '.join(sorted(allowed))}"
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check(value, key: str, kind, nullable: bool = False, min=None, choices=None):
    """Type- and bound-check one scalar value; an int widens to a float."""
    if value is None and nullable:
        return None
    if kind is float and _is_int(value):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{key}: expected int, got bool")
    if not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, "
                          f"got {type(value).__name__} ({value!r})")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {value}")
    if min is not None and value < min:
        raise ConfigError(f"{key}: must be >= {min}, got {value}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{key}: unknown value {value!r}, "
                          f"allowed values: {', '.join(map(str, choices))}")
    return value


def _parse_levels(raw, key: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key}: expected a non-empty list")
    levels = []
    for i, item in enumerate(raw):
        path = f"{key}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: expected an object")
        _reject_unknown(item, {"latent", "hidden"}, path)
        if "latent" not in item:
            raise ConfigError(f"{path}.latent: required")
        latent = _check(item["latent"], f"{path}.latent", int, min=1)
        hidden = _check_list(item.get("hidden", []), f"{path}.hidden", int, min=1)
        levels.append((hidden, latent))
    for i in range(len(levels) - 1):
        if levels[i + 1][1] >= levels[i][1]:
            raise ConfigError(f"{key}[{i + 1}].latent: widths must strictly decrease "
                              f"({levels[i][1]} then {levels[i + 1][1]})")
    return tuple(levels)


def _dump_levels(levels: tuple) -> list:
    return [{"hidden": list(h), "latent": l} for h, l in levels]


def _check_list(raw, key: str, kind, min=None) -> tuple:
    """A list of scalars, each checked by :func:`_check` under the name ``key[i]``."""
    if not isinstance(raw, list):
        raise ConfigError(f"{key}: expected a list, got {type(raw).__name__}")
    return tuple(_check(x, f"{key}[{i}]", kind, min=min) for i, x in enumerate(raw))


def _parse_seeds(raw, key: str) -> tuple:
    seeds = _check_list(raw, key, int, min=0)
    if not seeds:
        raise ConfigError(f"{key}: must be non-empty")
    return seeds


def _parse_betas(raw, key: str) -> tuple:
    return _check_list(raw, key, float, min=0)


def _key(key: str, default=MISSING, doc: str = "", *, min=None, choices=None, parse=None,
         dump=None):
    """One config key: its dotted path in the file, its default (none: the key
    is required), a short ``doc`` for the README, and its bound, a minimum or
    a set of choices; a field typed ``X | None`` may be null. A structured key
    brings its own ``parse`` and, when its file form is not a list, ``dump``."""
    return dataclasses.field(default=default, metadata=dict(
        key=key, min=min, choices=choices, parse=parse, dump=dump, doc=doc))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The fully resolved config, and the table of config keys: one field each."""

    dataset_id: str = _key("dataset.id", doc="the dataset to load", choices=DATASET_IDS)
    dataset_path: str | None = _key("dataset.path", None,
                                    "data file or directory; null: $FAIRSTACK_DATA_DIR")
    include_sensitive: bool = _key("dataset.include_sensitive", False, "keep the sensitive column")
    synthetic_n: int = _key("dataset.n", 2000, "synthetic rows", min=4)
    synthetic_noise: int = _key("dataset.n_noise", 3, "synthetic noise columns", min=0)
    synthetic_flip_y: float = _key("dataset.flip_y", 0.0, "synthetic label flip rate, in [0, 1]")
    subsample: int | None = _key("dataset.subsample", None, "seeded row cap; null: all", min=10)
    subsample_seed: int = _key("dataset.subsample_seed", 0, "subsample and generator seed", min=0)
    levels: tuple = _key("stack.levels", doc="list of {latent, hidden}, latents decreasing",
                         parse=_parse_levels, dump=_dump_levels)
    adv_hidden: int = _key("stack.adv_hidden", 20, "adversary hidden width, 0: linear", min=0)
    cls_hidden: int = _key("stack.cls_hidden", 20, "classifier hidden width, 0: linear", min=0)
    epochs: int = _key("train.epochs", 150, "training epochs per level", min=1)
    batch: int = _key("train.batch", 64, "minibatch rows", min=1)
    lr: float = _key("train.lr", 0.01, "learning rate", min=1e-12)
    lr_adv: float | None = _key("train.lr_adv", None, "adversary lr; null: train.lr", min=1e-12)
    adv_steps: int = _key("train.adv_steps", 1, "adversary updates per main update", min=1)
    freeze_previous: bool = _key("train.freeze_previous", True, "freeze the earlier levels")
    adversary_warm_start: bool = _key("train.adversary_warm_start", False,
                                      "copy matching layers of the previous adversary")
    eopp_adv_label: int = _key("train.eopp_adv_label", 0, "eopp adversary's rows have this y",
                               choices=(0, 1))
    alpha: float = _key("loss.alpha", 1.0, "reconstruction weight", min=0)
    beta: float = _key("loss.beta", 1.0, "adversary weight", min=0)
    gamma: float = _key("loss.gamma", 1.0, "classifier weight", min=0)
    root_mse: bool = _key("loss.root_mse", False, "root mean squared reconstruction error")
    criterion: str = _key("criterion", "dp", "fairness criterion", choices=CRITERIA)
    eo_mode: str = _key("eo_mode", "sum", "how the two eo gaps combine", choices=EO_MODES)
    betas: tuple = _key("sweep.betas", (1.0, 2.0, 3.0, 5.0, 15.0), "beta values of sweep",
                        parse=_parse_betas)
    seeds: tuple = _key("seeds", (0,), "run seeds; fit and table1 use the first",
                        parse=_parse_seeds)
    out_dir: str = _key("out_dir", "runs", "artifact root")
    val_frac: float = _key("val_frac", 0.2, "validation share, in (0, 0.5)")
    cv_folds: int = _key("cv_folds", 5, "cross-validation folds of table1", min=2)
    probe_hidden: int = _key("probe.hidden", 20, "probe hidden width, 0: linear", min=0)
    probe_epochs: int = _key("probe.epochs", 100, "probe epochs", min=1)
    probe_lr: float = _key("probe.lr", 0.01, "probe learning rate", min=1e-12)
    probe_batch: int = _key("probe.batch", 64, "probe minibatch rows", min=1)
    forest_trees: int = _key("forest.n_trees", 100, "trees per forest", min=1)
    forest_max_depth: int | None = _key("forest.max_depth", None, "depth cap; null: none", min=1)
    forest_min_split: int = _key("forest.min_samples_split", 2, "fewest rows to split", min=2)

    def to_dict(self) -> dict:
        """The fully resolved config in its file shape (defaults filled in)."""
        out: dict = {}
        for f in fields(self):
            section, _, leaf = f.metadata["key"].rpartition(".")
            (out.setdefault(section, {}) if section else out)[leaf] = \
                _file_value(f, getattr(self, f.name))
        return out


def _file_value(f: dataclasses.Field, value):
    """A field's value in its JSON file form."""
    if f.metadata["dump"]:
        return f.metadata["dump"](value)
    return list(value) if isinstance(value, tuple) else value


def _kind(f: dataclasses.Field) -> tuple[type, bool]:
    """The scalar type of a field and whether it may be null (``int | None``)."""
    args = typing.get_args(f.type)
    return next((a for a in args if a is not type(None)), f.type), type(None) in args


def describe_keys() -> str:
    """The README's config key list, one line per key."""
    lines = []
    for f in fields(ExperimentConfig):
        meta = f.metadata
        kind, nullable = _kind(f)
        bound = ("list" if meta["parse"] else
                 " | ".join(map(str, meta["choices"])) if meta["choices"] else kind.__name__)
        bound += f" >= {meta['min']}" if meta["min"] is not None else ""
        bound += " or null" if nullable else ""
        default = ("required" if f.default is MISSING
                   else f"default {json.dumps(_file_value(f, f.default))}")
        lines.append(f"{meta['key']:<26} {meta['doc']} ({bound}; {default})")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig | dict) -> str:
    d = cfg.to_dict() if isinstance(cfg, ExperimentConfig) else cfg
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a config dict key by key against :class:`ExperimentConfig`.

    ``base_dir`` is the config file's directory: a relative ``dataset.path``
    is looked up there first, then in the cwd, and stored absolute.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected an object, got {type(raw).__name__}")
    allowed: dict = {"": set()}  # allowed keys per section; '' is the top level
    for f in fields(ExperimentConfig):
        section, _, leaf = f.metadata["key"].rpartition(".")
        allowed[""].add(section or leaf)
        allowed.setdefault(section, set()).add(leaf)
    sections = {}
    for name, keys in allowed.items():
        sub = raw.get(name, {}) if name else raw
        if not isinstance(sub, dict):
            raise ConfigError(f"{name}: expected an object, got {type(sub).__name__}")
        _reject_unknown(sub, keys, name)
        sections[name] = sub

    values = {}
    for f in fields(ExperimentConfig):
        meta = f.metadata
        section, _, leaf = meta["key"].rpartition(".")
        if leaf not in sections[section]:
            if f.default is MISSING:
                raise ConfigError(f"{meta['key']}: required ({meta['doc']})")
            continue
        value = sections[section][leaf]
        if meta["parse"]:
            values[f.name] = meta["parse"](value, meta["key"])
        else:
            values[f.name] = _check(value, meta["key"], *_kind(f), meta["min"], meta["choices"])
    cfg = ExperimentConfig(**values)

    if not 0.0 < cfg.val_frac < 0.5:
        raise ConfigError(f"val_frac: expected a fraction in (0, 0.5), got {cfg.val_frac}")
    if not 0.0 <= cfg.synthetic_flip_y <= 1.0:
        raise ConfigError(f"dataset.flip_y: expected a fraction in [0, 1], got "
                          f"{cfg.synthetic_flip_y}")
    return _with_dataset_path(cfg, base_dir)


def load_config(path, seed: int | None = None, beta: float | None = None,
                criterion: str | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config file, applying CLI overrides
    (--seed replaces the seed list, --beta pins both loss.beta and the sweep
    list, --criterion replaces the criterion)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {p} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {seed}")
        raw["seeds"] = [seed]
    if beta is not None:
        if beta < 0:
            raise ConfigError(f"--beta must be >= 0, got {beta}")
        for section, leaf, value in (("loss", "beta", beta), ("sweep", "betas", [beta])):
            sub = raw.setdefault(section, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{section}: expected an object, got {type(sub).__name__}")
            sub[leaf] = value
    if criterion is not None:
        raw["criterion"] = criterion
    return parse_config(raw, base_dir=p.parent)


def _with_dataset_path(cfg: ExperimentConfig, base_dir: Path | None) -> ExperimentConfig:
    """Check that the data can be found, and store a given dataset.path as the
    absolute path it names. A null path stays null: $FAIRSTACK_DATA_DIR is
    read again when the data is loaded, so the config hash does not depend
    on the environment."""
    if cfg.dataset_id == "synthetic":
        return cfg
    if cfg.dataset_path:
        p = Path(cfg.dataset_path)
        found = next((c for c in ([base_dir / p] if base_dir else []) + [p] if c.exists()), None)
        if found is not None:
            return dataclasses.replace(cfg, dataset_path=str(found.resolve()))
    elif resolve_data_path(cfg) is not None:
        return cfg
    raise ConfigError(
        f"dataset.path: no path configured for dataset {cfg.dataset_id!r} and "
        f"${DATA_DIR_ENV} is not set (or the file does not exist)"
    )


def resolve_data_path(cfg: ExperimentConfig) -> Path | None:
    """dataset.path (absolute once parsed) if it exists, else $FAIRSTACK_DATA_DIR."""
    if cfg.dataset_path:
        p = Path(cfg.dataset_path)
        return p if p.exists() else None
    env = os.environ.get(DATA_DIR_ENV)
    if env and Path(env).exists():
        return Path(env)
    return None


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_id == "synthetic":
        ds = make_synthetic(n=cfg.synthetic_n, seed=cfg.subsample_seed,
                            n_noise=cfg.synthetic_noise, flip_y=cfg.synthetic_flip_y)
    else:
        path = resolve_data_path(cfg)
        if path is None:
            raise ConfigError(f"dataset.path: cannot locate data for {cfg.dataset_id!r}")
        loader = load_adult if cfg.dataset_id == "adult" else load_german
        ds = loader(path, include_sensitive=cfg.include_sensitive)
    if cfg.subsample is not None and cfg.subsample < ds.n:
        idx = np.sort(np.random.default_rng(cfg.subsample_seed)
                      .choice(ds.n, size=cfg.subsample, replace=False))
        sub = ds.subset(idx)
        sub.meta["subsampled_from"] = ds.n
        return sub
    return ds


# ---------------------------------------------------------------------------
# Bridges from config values to component specs


def stack_spec_for(cfg: ExperimentConfig, in_dim: int, variant: str = "stacked",
                   beta: float | None = None) -> StackSpec:
    """The architecture implied by the config for a given input width.

    ``stacked`` gives one level per configured latent; ``vanilla`` collapses
    the same chain into a single level (every intermediate width becomes an
    interior hidden layer) so only the final code carries fairness pressure.
    """
    beta = cfg.beta if beta is None else float(beta)
    common = dict(alpha=cfg.alpha, beta=beta, gamma=cfg.gamma, criterion=cfg.criterion,
                  adv_hidden=cfg.adv_hidden, cls_hidden=cfg.cls_hidden,
                  root_mse=cfg.root_mse)
    if variant == "stacked":
        specs = []
        prev = in_dim
        for hidden, latent in cfg.levels:
            specs.append(LevelSpec(in_dim=prev, latent=latent, hidden=hidden))
            prev = latent
        return StackSpec(levels=tuple(specs), **common)
    if variant == "vanilla":
        chain: list[int] = []
        for hidden, latent in cfg.levels[:-1]:
            chain.extend(hidden)
            chain.append(latent)
        chain.extend(cfg.levels[-1][0])
        return vanilla_spec(in_dim, hidden=chain, latent=cfg.levels[-1][1], **common)
    raise ValueError(f"unknown variant {variant!r}, expected 'stacked' or 'vanilla'")


def train_config_for(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs, batch_size=cfg.batch, lr=cfg.lr, lr_adv=cfg.lr_adv,
        adv_steps=cfg.adv_steps, seed=seed, freeze_previous=cfg.freeze_previous,
        adversary_warm_start=cfg.adversary_warm_start,
        eopp_adv_label=cfg.eopp_adv_label,
    )


def probe_spec_for(cfg: ExperimentConfig, seed: int) -> ProbeSpec:
    return ProbeSpec(hidden=cfg.probe_hidden, epochs=cfg.probe_epochs,
                     lr=cfg.probe_lr, batch_size=cfg.probe_batch, seed=seed)


def forest_spec_for(cfg: ExperimentConfig, seed: int) -> ForestSpec:
    return ForestSpec(n_trees=cfg.forest_trees, max_depth=cfg.forest_max_depth,
                      min_samples_split=cfg.forest_min_split, seed=seed)
