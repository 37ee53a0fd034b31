"""The config key table: pinned hashes of the shipped configs, the parse /
to_dict round trip, one rejection per key, and the README key list.

``ExperimentConfig``'s fields are the one declaration of every config key, so
these tests walk ``dataclasses.fields`` rather than naming keys by hand.
"""

import dataclasses
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstack.config import (ConfigError, ExperimentConfig, config_hash, describe_keys,
                              load_config, parse_config)

ROOT = Path(__file__).resolve().parents[1]
FIELDS = dataclasses.fields(ExperimentConfig)

# The hashes of the shipped configs. They are part of every run's artifacts,
# so a change to the key table must leave them as they are.
SHIPPED_HASHES = {
    "synthetic-smoke.json": "4b5662de254477fca286c4e9949846f7c72795efde90259401b51d2517a57773",
    "adult.json": "d23adcdf0167cab30cef7e8e9c3b3a6070393752b3e1b0086684da01f34bffb8",
    "german.json": "21965546a1aec5e2b05b4012523feef35e4fd73f33e9d85ead0daaf6ce546934",
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
        if kind is bool:
            base = st.booleans()
        elif kind is int:
            base = st.integers(0 if lo is None else lo, 10_000)
        elif kind is float:
            base = st.floats(-1e6 if lo is None else lo, 1e6, allow_nan=False)
        else:
            base = st.text(max_size=12)
    return st.none() | base if type(None) in args else base


def _levels():
    widths = st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True)
    hidden = st.lists(st.integers(1, 32), max_size=2)
    return widths.flatmap(lambda ws: st.tuples(*[
        st.tuples(hidden.map(tuple), st.just(w)) for w in sorted(ws, reverse=True)]))


STRUCTURED = {
    "levels": _levels(),
    "seeds": st.lists(st.integers(0, 2**31), min_size=1, max_size=4).map(tuple),
    "betas": st.lists(st.floats(0, 100), max_size=5).map(tuple),
    # a non-synthetic dataset needs a path that exists; this file does
    "dataset_path": st.just(str(Path(__file__).resolve())),
}


@st.composite
def valid_configs(draw):
    values = {f.name: draw(STRUCTURED[f.name] if f.name in STRUCTURED else _strategy(f))
              for f in FIELDS}
    return ExperimentConfig(**values)


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
    """A wrong-type value for every key, one just outside its bound, and the
    non-finite numbers JSON can spell for a float key."""
    meta = f.metadata
    bad = [{"not": "a value"}]
    non_finite = [float("nan"), float("inf"), float("-inf")]
    if (typing.get_args(f.type) or (f.type,))[0] is float:
        bad += non_finite
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


# ---------------------------------------------------------------------------
# docs


def test_readme_key_list_matches_the_table():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Config keys", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    assert block.rstrip("\n") == describe_keys(), (
        "README 'Config keys' block is out of date; paste describe_keys() output")
