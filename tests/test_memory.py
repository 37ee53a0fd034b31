"""Memory budgets of the CLI commands, as multiples of the feature matrix.

Each command runs in-process on an Adult-shaped synthetic config (6,000 rows,
100 columns, two levels 100->20->8, one epoch) under ``tracemalloc``, which
sees numpy's data buffers. The traced peak above the start must stay within
a few copies of ``X``: one raw matrix at load, then one standardized copy of
the rows each phase needs. A needless whole-matrix copy breaks the budget.
``transform`` gets the same kind of budget on a 12,000 x 100 CSV: the parsed
matrix plus the encoder's working memory, not a Python object per value.
``load_adult`` gets one on a 10,000-row Adult-format file: one list of rows
whose repeated field values share one string each, plus the matrix.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from fairstack.cli import main
from fairstack.config import load_config, load_dataset
from fairstack.data import load_adult
from fairstack.model import TrainedStack, build, stacked_spec


def _config(out_dir, n: int, n_noise: int) -> dict:
    return {
        "dataset": {"id": "synthetic", "n": n, "n_noise": n_noise, "flip_y": 0.1},
        "stack": {"levels": [{"latent": 20}, {"latent": 8}],
                  "adv_hidden": 20, "cls_hidden": 20},
        "train": {"epochs": 1, "batch": 64, "lr": 0.01},
        "loss": {"alpha": 0.0, "beta": 1.0, "gamma": 1.0},
        "sweep": {"betas": [1]},
        "seeds": [0],
        "probe": {"hidden": 20, "epochs": 1},
        "forest": {"n_trees": 3, "max_depth": 10},
        "cv_folds": 2,
        "out_dir": str(out_dir),
    }


def _traced(fn):
    """(traced peak above the start, result) of ``fn()``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - start, out
    finally:
        tracemalloc.stop()


def _traced_peak(argv: list[str]) -> int:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return _traced(run)[0]


@pytest.mark.parametrize("command,budget", [("fit", 2.5), ("table1", 2.75)])
def test_peak_traced_memory_within_budget(tmp_path, command, budget):
    # a small run of the same command first, so that modules imported on
    # first use are not counted against the matrix
    warm, path = tmp_path / "warm.json", tmp_path / "adult.json"
    warm.write_text(json.dumps(_config(tmp_path / "runs", 200, 27)))
    path.write_text(json.dumps(_config(tmp_path / "runs", 6000, 97)))
    _traced_peak([command, "--config", str(warm)])
    nbytes = load_dataset(load_config(path)).X.nbytes
    ratio = _traced_peak([command, "--config", str(path)]) / nbytes
    assert ratio <= budget, f"{command} peaked at {ratio:.2f} x X.nbytes ({nbytes} bytes)"


def test_transform_peak_traced_memory_within_budget(tmp_path):
    model = tmp_path / "model.fstk"
    TrainedStack.from_levels(build(stacked_spec(100, (20, 8)), seed=0)).save(model)
    X = np.round(np.random.default_rng(0).normal(size=(12_000, 100)), 4)
    for name, rows in (("warm.csv", X[:50]), ("in.csv", X)):
        (tmp_path / name).write_text(
            "\n".join([",".join(f"f{j}" for j in range(100))]
                      + [",".join(map(repr, row)) for row in rows.tolist()]) + "\n")

    def argv(name):
        return ["transform", "--model", str(model), "--input", str(tmp_path / name),
                "--output", str(tmp_path / f"out-{name}")]

    _traced_peak(argv("warm.csv"))
    ratio = _traced_peak(argv("in.csv")) / X.nbytes
    assert ratio <= 3.0, f"transform peaked at {ratio:.2f} x X.nbytes ({X.nbytes} bytes)"


def _adult_format_lines(n: int, seed: int) -> list[str]:
    """Adult-format rows with few distinct categories, so the matrix is narrow
    and the cost of the row list shows."""
    rng = np.random.default_rng(seed)
    cols = [rng.integers(17, 91, n), rng.choice(["Private", "State-gov", "Self-emp"], n),
            rng.integers(10_000, 1_000_000, n), rng.choice(["Bachelors", "HS-grad", "Masters"], n),
            rng.integers(1, 17, n), rng.choice(["Never-married", "Divorced"], n),
            rng.choice(["Adm-clerical", "Sales", "Tech-support"], n),
            rng.choice(["Husband", "Wife"], n), rng.choice(["White", "Black"], n),
            rng.choice(["Male", "Female"], n), rng.choice([0, 2174, 15024], n),
            rng.choice([0, 1902], n), rng.integers(1, 100, n),
            rng.choice(["United-States", "Mexico"], n), rng.choice([">50K", "<=50K."], n)]
    return [", ".join(map(str, row)) for row in zip(*(c.tolist() for c in cols))]


def test_load_adult_peak_traced_memory_within_budget(tmp_path):
    lines = _adult_format_lines(10_000, seed=0)
    for name, rows in (("warm.data", lines[:50]), ("adult.data", lines)):
        (tmp_path / name).write_text("\n".join(rows) + "\n")
    load_adult(tmp_path / "warm.data")  # first-use imports and caches are not counted
    peak, ds = _traced(lambda: load_adult(tmp_path / "adult.data"))
    ratio = peak / ds.X.nbytes
    assert ratio <= 4.0, f"load_adult peaked at {ratio:.2f} x X.nbytes ({ds.X.nbytes} bytes)"
