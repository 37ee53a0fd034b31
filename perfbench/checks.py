"""Output checks. Each returns its list of problems (the main commands' checks
also return the headline result); an empty list passes.

Every problem found makes the operation count as failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ENCODE_TOL = 1e-12
SWEEP_RUNS = 6
TABLE1_CELLS = 6


def new_run_dir(out_dir: Path, before: set) -> tuple[Path | None, list]:
    """The one run directory a command added under ``out_dir``."""
    added = sorted(set(out_dir.iterdir()) - before) if out_dir.exists() else []
    if len(added) != 1:
        return None, [f"expected one new run dir under out_dir, found {len(added)}"]
    return added[0], []


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_fit(run: Path, n_levels: int) -> tuple[dict, list]:
    problems = []
    for name in ["model.fstk", "run.json"] + [f"train-level{i}.csv" for i in range(n_levels)]:
        if not (run / name).is_file():
            problems.append(f"fit: missing {name}")
    if problems:
        return {}, problems
    report = json.loads((run / "run.json").read_text())["probe_report"]
    if not (_finite(report.get("accuracy")) and _finite(report.get("delta_dp"))):
        problems.append(f"fit: probe report not finite: {report}")
    return report, problems


def _read_encoded(path: Path) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]], dtype=np.float64)


def check_transform(output: Path, model: Path, X: np.ndarray) -> list:
    """Row count, width and header; every value finite; equal to an
    in-process ``TrainedStack.load(model).encode(X)`` within ENCODE_TOL."""
    from fairstack.model import TrainedStack

    if not output.is_file():
        return ["transform: no output file"]
    expected = TrainedStack.load(model).encode(X)
    header, Z = _read_encoded(output)
    if header != [f"z_{i}" for i in range(expected.shape[1])]:
        return [f"transform: header {header[:3]}... does not match out_dim {expected.shape[1]}"]
    if Z.shape != expected.shape:
        return [f"transform: output shape {Z.shape}, expected {expected.shape}"]
    if not np.isfinite(Z).all():
        return ["transform: non-finite values in output"]
    err = float(np.max(np.abs(Z - expected))) if Z.size else 0.0
    if err > ENCODE_TOL:
        return [f"transform: max |cli - in-process encode| = {err:.3g} > {ENCODE_TOL}"]
    return []


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_sweep(run: Path, betas) -> tuple[dict, list]:
    """6 rows plus the baseline, all ok; the headline is the stacked mean
    row at the largest beta."""
    problems = []
    rows = _csv_rows(run / "sweep.csv")
    base = _csv_rows(run / "baseline.csv")
    if len(rows) != SWEEP_RUNS or len(base) != 1:
        problems.append(f"sweep: {len(rows)} rows + {len(base)} baseline, "
                        f"expected {SWEEP_RUNS} + 1")
    bad = [r for r in rows + base if r["status"] != "ok"]
    if bad:
        problems.append(f"sweep: {len(bad)} rows not ok")
    top = max(betas)
    means = [r for r in _csv_rows(run / "sweep_means.csv")
             if r["variant"] == "stacked" and float(r["beta"]) == top]
    if len(means) != 1:
        return {}, problems + [f"sweep: no stacked mean row at beta={top}"]
    head = {k: float(means[0][k]) for k in ("accuracy", "delta_dp")}
    if not all(map(math.isfinite, head.values())):
        problems.append(f"sweep: headline not finite: {head}")
    return head, problems


def check_table1(run: Path) -> tuple[dict, list]:
    """6 cells with finite means; the headline is the stacked logreg cell."""
    cells = json.loads((run / "table1.json").read_text())["cells"]
    flat = [(m, v, c) for m, row in cells.items() for v, c in row.items()]
    problems = []
    if len(flat) != TABLE1_CELLS:
        problems.append(f"table1: {len(flat)} cells, expected {TABLE1_CELLS}")
    for m, v, c in flat:
        if not (_finite(c.get("accuracy_mean")) and _finite(c.get("delta_dp_mean"))):
            problems.append(f"table1: cell {m}/{v} has a non-finite mean")
    stacked = cells.get("logreg", {}).get("stacked", {})
    head = {"accuracy": stacked.get("accuracy_mean"), "delta_dp": stacked.get("delta_dp_mean")}
    return head, problems


def same_bytes(a: Path, b: Path, names) -> list:
    """Determinism contract: the same config and seed give byte-identical
    artifacts."""
    return [f"determinism: {n} differs between two fits with the same seed"
            for n in names if (a / n).read_bytes() != (b / n).read_bytes()]
