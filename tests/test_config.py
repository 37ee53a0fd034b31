"""The config key table: pinned hashes of the shipped configs, the parse /
to_dict round trip, one rejection per key, the spec fields that share the
keys' checker and bounds, the README key list, and the README's library
example.

``ExperimentConfig``'s fields are the one declaration of every config key, so
these tests walk ``dataclasses.fields`` rather than naming keys by hand.
"""

import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstack.config import (DATASET_IDS, ConfigError, ExperimentConfig, config_hash,
                              describe_keys, load_config, parse_config)
from fairstack.downstream import ProbeSpec
from fairstack.forest import ForestSpec
from fairstack.model import SpecError, StackSpec
from fairstack.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
FIELDS = dataclasses.fields(ExperimentConfig)

# The hashes of the shipped configs. They are part of every run's artifacts,
# so a change to the key table must leave them as they are. (They last changed
# when the eopp label key and the per-level hidden lists were removed.)
SHIPPED_HASHES = {
    "synthetic-smoke.json": "300f6d3e597b4410d1e8cec88b8a9d1eb6728cc65a7dbb0889f2d540a085fc9a",
    "adult.json": "74316e799f833679a1f40ad76bc29be1da51a8de15dd9260f23437e28ce8aa5e",
    "german.json": "881cbc76d2459d1b712dab1894d42810af4c156ee58ca17fcdb889fa3568ceb1",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_hashes_are_pinned(name, tmp_path, monkeypatch):
    # adult and german have a null path: any existing data dir validates them
    monkeypatch.setenv("FAIRSTACK_DATA_DIR", str(tmp_path))
    assert config_hash(load_config(ROOT / "configs" / name)) == SHIPPED_HASHES[name]


# ---------------------------------------------------------------------------
# round trip over valid configs drawn from the table


def _strategy(f):
    """Valid values of one scalar field, from its type and bound."""
    meta = f.metadata
    args = typing.get_args(f.type)  # (int, NoneType) for ``int | None``
    if f.name == "val_frac":  # bounded by an explicit cross-check, not the table
        return st.floats(0.01, 0.49)
    if f.name == "synthetic_flip_y":  # likewise
        return st.floats(0.0, 1.0)
    if meta["choices"]:
        base = st.sampled_from(meta["choices"])
    else:
        kind = args[0] if args else f.type
        lo = meta["min"]
        if kind is int:
            base = st.integers(0 if lo is None else lo, 10_000)
        elif kind is float:
            base = st.floats(-1e6 if lo is None else lo, 1e6, allow_nan=False)
        else:
            base = st.text(max_size=12)
    return st.none() | base if type(None) in args else base


def _levels():
    widths = st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True)
    return widths.map(lambda ws: tuple(sorted(ws, reverse=True)))


STRUCTURED = {
    "levels": _levels(),
    "seeds": st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True).map(tuple),
    "betas": st.lists(st.floats(0, 100), max_size=5, unique=True).map(tuple),
    # adult and german need a path that exists; this file does
    "dataset_path": st.just(str(Path(__file__).resolve())),
}


@st.composite
def valid_configs(draw):
    """A valid config of a drawn dataset id; the dataset keys that id does
    not read keep their defaults."""
    dataset_id = draw(st.sampled_from(DATASET_IDS))
    values = {f.name: draw(STRUCTURED[f.name] if f.name in STRUCTURED else _strategy(f))
              for f in FIELDS if f.name != "dataset_id" and dataset_id in f.metadata["ids"]}
    return ExperimentConfig(dataset_id=dataset_id, **values)


@st.composite
def shuffled(draw, d):
    """The same mapping with its keys (and its sections' keys) reordered."""
    keys = draw(st.permutations(sorted(d)))
    return {k: draw(shuffled(d[k])) if isinstance(d[k], dict) else d[k] for k in keys}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_to_dict_round_trips_through_parse_config(data):
    cfg = data.draw(valid_configs())
    d = cfg.to_dict()
    assert parse_config(d) == cfg
    reordered = data.draw(shuffled(d))
    assert parse_config(reordered) == cfg
    assert config_hash(parse_config(reordered)) == config_hash(cfg)


# ---------------------------------------------------------------------------
# one rejection per key


def _valid_file() -> dict:
    return {"dataset": {"id": "synthetic"}, "stack": {"levels": [{"latent": 2}]}}


def _with(d: dict, key: str, value) -> dict:
    section, _, leaf = key.rpartition(".")
    (d.setdefault(section, {}) if section else d)[leaf] = value
    return d


def _bad_values(f):
    """A wrong-type value for every key, one just outside its bound, the
    non-finite numbers JSON can spell for a float key, an integer past float
    range among them, and that integer for an int key, which must fit in 64
    bits."""
    meta = f.metadata
    bad = [{"not": "a value"}]
    non_finite = [float("nan"), float("inf"), float("-inf"), 10**400]
    kind = (typing.get_args(f.type) or (f.type,))[0]
    if kind is float:
        bad += non_finite
    if kind is int:
        bad.append(10**400)
    if f.name == "betas":
        bad += [[1.0, x] for x in non_finite]
    if meta["min"] is not None:
        bad.append(meta["min"] - 1)
    if meta["choices"]:
        bad.append(max(meta["choices"]) + 1 if isinstance(meta["choices"][0], int) else "bogus")
    return bad


@pytest.mark.parametrize("f", FIELDS, ids=[f.metadata["key"] for f in FIELDS])
def test_every_key_rejects_a_bad_value_by_name(f):
    key = f.metadata["key"]
    assert parse_config(_valid_file())  # the base is valid
    for value in _bad_values(f):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(_with(_valid_file(), key, value))
    if f.default is dataclasses.MISSING:
        section, _, leaf = key.rpartition(".")
        d = _valid_file()
        del (d[section] if section else d)[leaf]
        with pytest.raises(ConfigError, match=re.escape(key) + ": required"):
            parse_config(d)



@pytest.mark.parametrize("key, value, error", [
    ("seeds", [0, "a"], "seeds[1]: expected int, got str ('a')"),
    ("sweep.betas", [1.0, float("nan")], "sweep.betas[1]: must be a finite number"),
    ("stack.levels", [{"latent": 4}, {"latent": 0}],
     "stack.levels[1].latent: must be >= 1"),
    ("seeds", [0, 1, 0], "seeds[2]: duplicate of seeds[0] (0)"),
    ("sweep.betas", [1, 2, 1.0], "sweep.betas[2]: duplicate of sweep.betas[0] (1.0)"),
], ids=["seeds", "sweep.betas", "stack.levels.latent", "seeds-repeated", "sweep.betas-repeated"])
def test_list_entries_are_named_by_index(key, value, error):
    with pytest.raises(ConfigError, match=re.escape(error)):
        parse_config(_with(_valid_file(), key, value))


# ---------------------------------------------------------------------------
# spec fields: one checker and one bound, shared with the config keys

# Every bounded field of the four specs, with the kwargs it is built with.
SPEC_BASE = {StackSpec: {"in_dim": 10, "levels": ((1,),)}, TrainConfig: {}, ProbeSpec: {},
             ForestSpec: {}}
BOUNDED = [(StackSpec, "in_dim"), (StackSpec, "alpha"), (StackSpec, "beta"),
           (StackSpec, "gamma"), (StackSpec, "criterion"), (StackSpec, "adv_hidden"),
           (StackSpec, "cls_hidden"), (TrainConfig, "epochs"), (TrainConfig, "batch_size"),
           (TrainConfig, "lr"), (TrainConfig, "seed"), (ProbeSpec, "hidden"),
           (ProbeSpec, "epochs"), (ProbeSpec, "seed"), (ForestSpec, "n_trees"),
           (ForestSpec, "max_depth"), (ForestSpec, "seed")]
# Each config key that sets a spec field, and that field.
SPEC_KEYS = {"stack.adv_hidden": (StackSpec, "adv_hidden"),
             "stack.cls_hidden": (StackSpec, "cls_hidden"),
             "train.epochs": (TrainConfig, "epochs"), "train.batch": (TrainConfig, "batch_size"),
             "train.lr": (TrainConfig, "lr"), "loss.alpha": (StackSpec, "alpha"),
             "loss.beta": (StackSpec, "beta"), "loss.gamma": (StackSpec, "gamma"),
             "criterion": (StackSpec, "criterion"), "probe.hidden": (ProbeSpec, "hidden"),
             "probe.epochs": (ProbeSpec, "epochs"), "forest.n_trees": (ForestSpec, "n_trees"),
             "forest.max_depth": (ForestSpec, "max_depth")}


def _spec_field(spec, name: str) -> dataclasses.Field:
    return {f.name: f for f in dataclasses.fields(spec)}[name]


def _rule(f: dataclasses.Field) -> tuple[type, bool, object, tuple | None]:
    """A spec field's kind, whether it may be None, its minimum and its choices."""
    args = typing.get_args(f.type)
    kind = next((a for a in args if a is not type(None)), f.type)
    return kind, type(None) in args, f.metadata["min"], f.metadata["choices"]


def test_the_bounded_spec_fields_are_the_listed_ones():
    found = {(spec, f.name) for spec in SPEC_BASE for f in dataclasses.fields(spec)
             if "min" in f.metadata}
    assert found == set(BOUNDED)


@pytest.mark.parametrize("spec, name", BOUNDED, ids=[f"{s.__name__}.{n}" for s, n in BOUNDED])
def test_every_spec_field_is_checked_by_its_rule(spec, name):
    # Library callers get the config keys' rules. Before, a spec let through
    # a bool or float int field, a nan float field and a train lr below
    # 1e-12, or failed on them deep in numpy; an inf beta trained into a
    # numpy warning.
    kind, nullable, low, choices = _rule(_spec_field(spec, name))
    error = SpecError if spec is StackSpec else ValueError

    def build(value):
        return spec(**{**SPEC_BASE[spec], name: value})

    if kind is int:
        bad = [True, False, float(low), 1.5, 2.5, low - 1, 2**63]
        good = [low, low + 1]
    elif kind is float:
        bad = [True, False, math.nan, math.inf, -math.inf, math.nextafter(low, -math.inf)]
        good = [low, float(low), 1.0]
    else:
        bad = [1, None, "bogus"]
        good = list(choices)
    for value in bad:
        with pytest.raises(error, match=f"^{name}: "):
            build(value)
    for value in good + ([None] if nullable else []):
        made = build(value)
        assert getattr(made, name) == value
        assert type(getattr(made, name)) is (type(None) if value is None else kind)
    with pytest.raises(dataclasses.FrozenInstanceError):  # checked once, so set once
        setattr(made, name, bad[0])


@pytest.mark.parametrize("key", sorted(SPEC_KEYS))
def test_a_spec_key_states_its_fields_bound_and_default(key):
    f = _spec_field(*SPEC_KEYS[key])
    kind, nullable, low, choices = _rule(f)
    bound = " | ".join(choices) if choices else kind.__name__
    bound += (f" >= {low}" if low is not None else "") + (" or null" if nullable else "")
    line = next(ln for ln in describe_keys().splitlines() if ln.split()[0] == key)
    assert line.endswith(f"({bound}; default {json.dumps(f.default)})"), line


# ---------------------------------------------------------------------------
# docs


def test_readme_key_list_matches_the_table():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Config keys", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    assert block.rstrip("\n") == describe_keys(), (
        "README 'Config keys' block is out of date; paste describe_keys() output")


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the block saves model.fstk into its cwd
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "model.fstk").is_file()
    assert "'delta_dp'" in capsys.readouterr().out
