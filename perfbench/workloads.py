"""Workload definitions and the seeded input generator.

Each workload is one CLI pipeline on generated inputs. The benchmark's seed
is the only source of variation: the same seed writes byte-identical
configs and CSVs. The program sees only those files (plus ``--seed`` on the
command line for the shipped smoke config, which stays unchanged except for
``out_dir``).

BENCHMARK.json lists fit-adult and table1-adult. sweep-smoke runs by hand
(``--workload sweep-smoke`` or ``all``) but is not listed: on a shared 2-core
host its wall time spread between runs reached IQR/median 0.34, above the
largest bound a listed metric may have.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # fit | sweep | table1
    jobs: int            # --jobs given to the main command
    min_reps: int        # main-command repetitions a run needs at least
    transform_rows: int  # rows in the transform input CSV (about 1.5 s of CLI work)
    rationale: str       # which layers it loads and which it bypasses; the one-line
                         # summary is the workload's "why" in BENCHMARK.json


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fit-adult", command="fit", jobs=1, min_reps=2, transform_rows=12_000,
            rationale=(
                "fit time is almost all the training kernel (autodiff, nn, model, "
                "training) at d=100 matmuls; no forest, no pool. transform reads the "
                "saved model back (load/encode) and runs the cli CSV path, the read "
                "path beside fit's write path. Two fits with the same seed also "
                "give the determinism check."),
        ),
        Workload(
            name="sweep-smoke", command="sweep", jobs=2, min_reps=1, transform_rows=100_000,
            rationale=(
                "6 short runs plus a baseline probe at d=6, hidden 8. The one-level, "
                "no-hidden config makes the stacked and vanilla specs identical, so "
                "the work shared across runs is as large as it gets: same split, "
                "init and batch order across betas, plus duplicate specs."),
        ),
        Workload(
            name="table1-adult", command="table1", jobs=1, min_reps=1, transform_rows=12_000,
            rationale=(
                "CV of full-batch logreg on d=100 and the depth-10 CART forest do most "
                "of the work and run in no other workload. The two-level spec has no "
                "duplicate, so dedupe is bypassed; the serial run keeps pool effects "
                "out."),
        ),
    )
}


def adult_config(seed: int, out_dir: str, epochs: int) -> dict:
    """Adult-shaped synthetic experiment: 6,000 rows, 3 signal + 97 noise
    columns, 10% label noise, two levels 100->20->8."""
    return {
        "dataset": {"id": "synthetic", "n": 6000, "n_noise": 97, "flip_y": 0.1,
                    "subsample_seed": seed},
        "stack": {"levels": [{"latent": 20}, {"latent": 8}],
                  "adv_hidden": 20, "cls_hidden": 20},
        "train": {"epochs": epochs, "batch": 64, "lr": 0.01},
        "loss": {"alpha": 0.0, "beta": 1.0, "gamma": 1.0},
        "criterion": "dp",
        "sweep": {"betas": [1]},
        "seeds": [seed],
        "probe": {"hidden": 20, "epochs": 10},
        "forest": {"n_trees": 10, "max_depth": 10},
        "cv_folds": 2,
        "out_dir": out_dir,
    }


@dataclass
class Inputs:
    """Files one workload run feeds to the program."""
    config: Path
    cli_seed: list           # extra ["--seed", n] for the main command, or []
    transform_csv: Path
    transform_X: np.ndarray  # the exact values written to transform_csv
    model: Path | None       # transform model for workloads that save none


def _write_csv(path: Path, X: np.ndarray) -> None:
    header = ",".join(f"f{j}" for j in range(X.shape[1]))
    body = "\n".join(",".join(map(repr, row)) for row in X.tolist())
    path.write_text(header + "\n" + body + "\n")


def transform_rows(seed: int, rows: int, width: int) -> np.ndarray:
    """Held-out-shaped rows on the standardized scale. Rounded to 4 decimals,
    so the CSV text is short and parses back to exactly these values."""
    rng = np.random.default_rng([seed, width])
    return np.round(rng.normal(size=(rows, width)), 4)


def generate(workload: Workload, seed: int, repo: Path, dest: Path) -> Inputs:
    """Write the workload's configs and CSVs for ``seed`` under ``dest``.

    Runs in the benchmark's process with ``repo/src`` importable."""
    dest.mkdir(parents=True)
    out_dir = str(dest / "runs")
    if workload.command == "sweep":
        cfg = json.loads((repo / "configs" / "synthetic-smoke.json").read_text())
        cfg["out_dir"] = out_dir
        cli_seed = ["--seed", str(seed)]
    else:
        epochs = 8 if workload.command == "fit" else 2
        cfg = adult_config(seed, out_dir, epochs)
        cli_seed = []
    config = dest / f"{workload.name}.json"
    config.write_text(json.dumps(cfg, indent=2) + "\n")

    model = None
    width = 3 + cfg["dataset"]["n_noise"]       # make_synthetic: 3 signal columns + noise
    if workload.command != "fit":
        model = dest / "init-model.fstk"
        _init_model(config, seed, width, model)
    X = transform_rows(seed, workload.transform_rows, width)
    csv_path = dest / "transform-in.csv"
    _write_csv(csv_path, X)
    return Inputs(config=config, cli_seed=cli_seed, transform_csv=csv_path,
                  transform_X=X, model=model)


def _init_model(config: Path, seed: int, width: int, path: Path) -> None:
    """The workload's stack at its initial weights, for workloads whose command
    saves no model: the transform path then runs at the workload's shape."""
    from fairstack.config import load_config, stack_spec_for
    from fairstack.model import TrainedStack, build

    cfg = load_config(config, seed=seed)
    spec = stack_spec_for(cfg, in_dim=width, variant="stacked")
    TrainedStack.from_levels(build(spec, seed), {"variant": "init"}).save(path)
