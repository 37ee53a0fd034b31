"""Experiment configuration: one JSON file drives every CLI command.

Every config key is declared once, as a field of :class:`ExperimentConfig`:
its dotted key, type, default and bound; a key that sets a spec field takes
that field's default and bound. Each value is checked by :func:`data._check`,
as each spec field is. The parser, ``to_dict`` and the README key list
(:func:`describe_keys`) are all derived from those fields.
``stack.levels`` lists the code widths only; :func:`stack_spec_for` hands that
one list to the spec builder of the variant, which groups it into levels.

Unknown keys are rejected with their full dotted path, so typos fail loudly
instead of silently running defaults; so is a ``dataset.*`` key that the
chosen ``dataset.id`` does not read, unless it holds its default.
"""

import dataclasses
import hashlib
import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .data import (TEXT_ENCODING, Dataset, _check, _kind, load_adult, load_german, make_planted,
                   make_synthetic)
from .downstream import ProbeSpec
from .forest import ForestSpec
from .metrics import EO_MODES
from .model import StackSpec, stacked_spec, vanilla_spec
from .training import TrainConfig

DATA_DIR_ENV = "FAIRSTACK_DATA_DIR"
DATASET_IDS = ("adult", "german", "synthetic", "planted")


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


def _parse_levels(raw, key: str) -> tuple:
    """The latent width of each level, checked to strictly decrease."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key}: expected a non-empty list")
    latents = []
    for i, item in enumerate(raw):
        path = f"{key}[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: expected an object")
        _reject_unknown(item, {"latent"}, path)
        if "latent" not in item:
            raise ConfigError(f"{path}.latent: required")
        latents.append(_check(item["latent"], f"{path}.latent", int, min=1, error=ConfigError))
    for i in range(len(latents) - 1):
        if latents[i + 1] >= latents[i]:
            raise ConfigError(f"{key}[{i + 1}].latent: widths must strictly decrease "
                              f"({latents[i]} then {latents[i + 1]})")
    return tuple(latents)


def _dump_levels(levels: tuple) -> list:
    return [{"latent": w} for w in levels]


def _check_list(raw, key: str, kind, min=None) -> tuple:
    """A list of scalars, each checked by :func:`_check` under the name ``key[i]``."""
    if not isinstance(raw, list):
        raise ConfigError(f"{key}: expected a list, got {type(raw).__name__}")
    return tuple(_check(x, f"{key}[{i}]", kind, min=min, error=ConfigError)
                 for i, x in enumerate(raw))


def _distinct(values: tuple, key: str) -> tuple:
    """Refuse a repeated value (``1`` is ``1.0``): it would train the same runs twice."""
    for i, v in enumerate(values):
        j = values.index(v)
        if j < i:
            raise ConfigError(f"{key}[{i}]: duplicate of {key}[{j}] ({values[j]})")
    return values


def _parse_seeds(raw, key: str) -> tuple:
    seeds = _check_list(raw, key, int, min=0)
    if not seeds:
        raise ConfigError(f"{key}: must be non-empty")
    return _distinct(seeds, key)


def _parse_betas(raw, key: str) -> tuple:
    return _distinct(_check_list(raw, key, float, min=0), key)


def _key(key: str, default=MISSING, doc: str = "", *, min=None, choices=None, parse=None,
         dump=None, ids=DATASET_IDS):
    """One config key: its dotted path in the file, its default (none: the key
    is required), a short ``doc`` for the README, and its bound, a minimum or
    a set of choices; a field typed ``X | None`` may be null. A structured key
    brings its own ``parse`` and, when its file form is not a list, ``dump``.
    ``ids`` names the dataset ids that read the key; with any other id it
    must keep its default."""
    return dataclasses.field(default=default, metadata=dict(
        key=key, min=min, choices=choices, parse=parse, dump=dump, doc=doc, ids=ids))


def _spec_key(key: str, spec, name: str, doc: str):
    """A config key that sets field ``name`` of the dataclass ``spec``: its
    default and bound are that field's."""
    f = spec.__dataclass_fields__[name]
    return _key(key, f.default, doc, **f.metadata)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The fully resolved config, and the table of config keys: one field each."""

    dataset_id: str = _key("dataset.id", doc="the dataset to load", choices=DATASET_IDS)
    dataset_path: str | None = _key("dataset.path", None,
                                    "data file or directory; null: $FAIRSTACK_DATA_DIR",
                                    ids=("adult", "german"))
    synthetic_n: int = _key("dataset.n", 2000, "rows drawn", min=4, ids=("synthetic", "planted"))
    synthetic_noise: int = _key("dataset.n_noise", 3, "noise columns", min=0, ids=("synthetic",))
    synthetic_flip_y: float = _key("dataset.flip_y", 0.0, "label flip rate, in [0, 1]",
                                   ids=("synthetic",))
    subsample: int | None = _key("dataset.subsample", None, "seeded row cap; null: all", min=10)
    subsample_seed: int = _key("dataset.subsample_seed", 0, "subsample and generator seed", min=0)
    levels: tuple = _key("stack.levels", doc="list of {latent}, latents decreasing",
                         parse=_parse_levels, dump=_dump_levels)
    adv_hidden: int = _spec_key("stack.adv_hidden", StackSpec, "adv_hidden",
                                "adversary hidden width, 0: linear")
    cls_hidden: int = _spec_key("stack.cls_hidden", StackSpec, "cls_hidden",
                                "classifier hidden width, 0: linear")
    epochs: int = _spec_key("train.epochs", TrainConfig, "epochs", "training epochs per level")
    batch: int = _spec_key("train.batch", TrainConfig, "batch_size", "minibatch rows")
    lr: float = _spec_key("train.lr", TrainConfig, "lr", "learning rate of both steps")
    alpha: float = _spec_key("loss.alpha", StackSpec, "alpha", "reconstruction weight")
    beta: float = _spec_key("loss.beta", StackSpec, "beta", "adversary weight")
    gamma: float = _spec_key("loss.gamma", StackSpec, "gamma", "classifier weight")
    criterion: str = _spec_key("criterion", StackSpec, "criterion", "fairness criterion")
    eo_mode: str = _key("eo_mode", "sum", "how the two eo gaps combine", choices=EO_MODES)
    betas: tuple = _key("sweep.betas", (1.0, 2.0, 3.0, 5.0, 15.0),
                        "beta values of sweep, each once", parse=_parse_betas)
    seeds: tuple = _key("seeds", (0,), "run seeds, each once; fit and table1 use the first",
                        parse=_parse_seeds)
    out_dir: str = _key("out_dir", "runs", "artifact root")
    val_frac: float = _key("val_frac", 0.2, "validation share, in (0, 0.5)")
    cv_folds: int = _key("cv_folds", 5, "cross-validation folds of table1", min=2)
    probe_hidden: int = _spec_key("probe.hidden", ProbeSpec, "hidden",
                                  "probe hidden width, 0: linear")
    probe_epochs: int = _spec_key("probe.epochs", ProbeSpec, "epochs", "probe epochs")
    forest_trees: int = _spec_key("forest.n_trees", ForestSpec, "n_trees", "trees per forest")
    forest_max_depth: int | None = _spec_key("forest.max_depth", ForestSpec, "max_depth",
                                             "depth cap; null: none")

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


def describe_keys() -> str:
    """The README's config key list, one line per key."""
    lines = []
    for f in fields(ExperimentConfig):
        meta = f.metadata
        kind, nullable = _kind(f.type)
        bound = ("list" if meta["parse"] else
                 " | ".join(map(str, meta["choices"])) if meta["choices"] else kind.__name__)
        bound += f" >= {meta['min']}" if meta["min"] is not None else ""
        bound += " or null" if nullable else ""
        default = ("required" if f.default is MISSING
                   else f"default {json.dumps(_file_value(f, f.default))}")
        only = "" if meta["ids"] == DATASET_IDS else f"; {', '.join(meta['ids'])} only"
        lines.append(f"{meta['key']:<26} {meta['doc']} ({bound}; {default}{only})")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig | dict) -> str:
    """SHA-256 of the config in its file shape, ``out_dir`` left out: where a
    run writes its artifacts is not part of the experiment."""
    d = cfg.to_dict() if isinstance(cfg, ExperimentConfig) else cfg
    d = {k: v for k, v in d.items() if k != "out_dir"}
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
            values[f.name] = _check(value, meta["key"], f.type, meta["min"], meta["choices"],
                                    ConfigError)
    cfg = ExperimentConfig(**values)

    if not 0.0 < cfg.val_frac < 0.5:
        raise ConfigError(f"val_frac: expected a fraction in (0, 0.5), got {cfg.val_frac}")
    if not 0.0 <= cfg.synthetic_flip_y <= 1.0:
        raise ConfigError(f"dataset.flip_y: expected a fraction in [0, 1], got "
                          f"{cfg.synthetic_flip_y}")
    for f in fields(cfg):
        if cfg.dataset_id not in f.metadata["ids"] and getattr(cfg, f.name) != f.default:
            raise ConfigError(f"{f.metadata['key']}: dataset {cfg.dataset_id!r} does not read "
                              f"this key (read by: {', '.join(f.metadata['ids'])})")
    return _with_dataset_path(cfg, base_dir)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice is an error."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config key {key!r} is given more than once")
        out[key] = value
    return out


def load_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config file (UTF-8, a leading byte-order
    mark skipped; a key repeated within an object is refused); ``seed``
    (the CLI's --seed) replaces the seed list."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding=TEXT_ENCODING), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {p} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise ConfigError(f"config {p} cannot be read: {exc.strerror or exc}") from None
    except ConfigError:   # a repeated key
        raise
    except ValueError as exc:   # a decode error, or an integer past Python's digit limit
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {p} nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    if seed is not None:
        raw["seeds"] = [_check(seed, "--seed", int, min=0, error=ConfigError)]
    return parse_config(raw, base_dir=p.parent)


def _with_dataset_path(cfg: ExperimentConfig, base_dir: Path | None) -> ExperimentConfig:
    """Store a given dataset.path as the absolute path it names, looked up
    next to the config first, then in the cwd, and check that the data can be
    found. A null path stays null: $FAIRSTACK_DATA_DIR is read again when the
    data is loaded, so the config hash does not depend on the environment."""
    if cfg.dataset_id in ("synthetic", "planted"):  # generated: no file
        return cfg
    if cfg.dataset_path:
        p = Path(cfg.dataset_path)
        found = next((c for c in ([base_dir / p] if base_dir else []) + [p] if c.exists()), None)
        if found is not None:
            cfg = dataclasses.replace(cfg, dataset_path=str(found.resolve()))
    resolve_data_path(cfg)
    return cfg


def resolve_data_path(cfg: ExperimentConfig) -> Path:
    """dataset.path (absolute once parsed), else $FAIRSTACK_DATA_DIR; a
    :class:`ConfigError` naming the one it read when nothing is there."""
    key, value = (("dataset.path", cfg.dataset_path) if cfg.dataset_path
                  else (f"${DATA_DIR_ENV}", os.environ.get(DATA_DIR_ENV)))
    if not value:
        raise ConfigError(f"dataset.path: null for dataset {cfg.dataset_id!r}, "
                          f"and ${DATA_DIR_ENV} is not set")
    if not Path(value).exists():
        raise ConfigError(f"{key}: {value} does not exist")
    return Path(value)


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_id == "synthetic":
        ds = make_synthetic(n=cfg.synthetic_n, seed=cfg.subsample_seed,
                            n_noise=cfg.synthetic_noise, flip_y=cfg.synthetic_flip_y)
    elif cfg.dataset_id == "planted":
        ds = make_planted(n=cfg.synthetic_n, seed=cfg.subsample_seed)
    else:
        loader = load_adult if cfg.dataset_id == "adult" else load_german
        ds = loader(resolve_data_path(cfg))
    if cfg.subsample is not None and cfg.subsample < ds.n:
        idx = np.sort(np.random.default_rng(cfg.subsample_seed)
                      .choice(ds.n, size=cfg.subsample, replace=False))
        return ds.subset(idx)
    return ds


# ---------------------------------------------------------------------------
# Bridges from config values to component specs


def stack_spec_for(cfg: ExperimentConfig, in_dim: int, variant: str = "stacked",
                   beta: float | None = None) -> StackSpec:
    """The architecture implied by the config for a given input width: the
    configured latents grouped as ``stacked``, one single-layer level each, or
    as ``vanilla``, one level through them all whose final code alone carries
    fairness pressure."""
    beta = cfg.beta if beta is None else float(beta)
    _check(variant, "variant", str, choices=("stacked", "vanilla"))
    builder = stacked_spec if variant == "stacked" else vanilla_spec
    return builder(in_dim, cfg.levels, alpha=cfg.alpha, beta=beta, gamma=cfg.gamma,
                   criterion=cfg.criterion, adv_hidden=cfg.adv_hidden, cls_hidden=cfg.cls_hidden)


def train_config_for(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch, lr=cfg.lr, seed=seed)


def probe_spec_for(cfg: ExperimentConfig, seed: int) -> ProbeSpec:
    return ProbeSpec(hidden=cfg.probe_hidden, epochs=cfg.probe_epochs, seed=seed)


def forest_spec_for(cfg: ExperimentConfig, seed: int) -> ForestSpec:
    return ForestSpec(n_trees=cfg.forest_trees, max_depth=cfg.forest_max_depth, seed=seed)
