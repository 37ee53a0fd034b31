"""Command-line front end: fit, transform, sweep, table1.

``fit``, ``sweep`` and ``table1`` read one JSON config (see
:mod:`fairstack.config`), which sets the whole experiment but ``--seed`` and
``--jobs``, and write their artifacts into a fresh timestamped directory under
``out_dir`` — nothing is ever overwritten. All artifacts embed the config
hash and seed so a run can be traced back to its exact inputs.

``sweep`` runs one job per row: a (beta, seed, variant) training run scored
by the probe, and per seed the raw-feature baseline, which is the ``unfair``
variant of the same job (identity stack, no training). With one level the
vanilla spec is the stacked one, so each (beta, seed) trains once and its
vanilla row is a copy of the stacked row. ``--jobs N`` runs all
sweep rows plus the baseline, or table1's six CV cells, in one pool of N
worker processes. Those workers are the only parallelism: importing this
module sets each of ``BLAS_THREAD_VARS`` to 1 unless it is already set, so
the CLI and its workers run BLAS on one thread; code that does not import
this module keeps numpy's default.

``transform`` reads a UTF-8 CSV of numeric feature rows (a leading byte-order
mark is skipped). The model file stores no standardization, so the rows must
already be z-scored with the training split's statistics, as ``fit`` trained
on. The CSV has an optional non-numeric header row, ``,`` delimiters, ``"``
quotes, blank lines skipped. The body is
parsed by one ``np.loadtxt`` call into the float matrix, so its memory is
about that matrix, not a Python object per value; a value ``float`` accepts
but ``loadtxt`` does not (``1_0``, non-ASCII digits) is non-numeric. The codes
are written as ``repr`` floats joined by ``,`` with ``\\r\\n`` line ends, the
bytes ``csv.writer`` writes.

Exit codes: 0 success, 1 runtime failure (training/IO), 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

# One BLAS thread per process, set before numpy loads (``import fairstack``
# loads none): at these matrix sizes a second thread never pays, and the
# --jobs worker processes are the parallelism. A value already exported wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread variables)

from .config import (ConfigError, ExperimentConfig, config_hash, forest_spec_for,
                     load_config, load_dataset, probe_spec_for, stack_spec_for,
                     train_config_for)
from .data import TEXT_ENCODING, Dataset, DatasetError, standardize, train_val_test_split
from .downstream import cross_validate, train_probe
from .metrics import PredictionBatch, UndefinedMetricError, evaluate
from .model import ModelFormatError, SpecError, TrainedStack
from .training import LOG_COLUMNS, DivergenceError, train_stack

METRIC_COLUMNS = ("accuracy", "delta_dp", "delta_eo", "delta_eopp")
SWEEP_COLUMNS = ("beta", "seed", "variant") + ("status",) + METRIC_COLUMNS
VARIANTS = ("stacked", "vanilla")
TABLE1_VARIANTS = ("unfair", "lafr", "stacked")
TABLE1_MODELS = ("logreg", "forest")
# What main maps to exit code 2 (the config) and to exit code 1 (the run);
# a sweep job turns a run error into a failed row.
CONFIG_ERRORS = (ConfigError, SpecError)
RUN_ERRORS = (DivergenceError, DatasetError, ModelFormatError, UndefinedMetricError, OSError)


def _run_dir(out_dir: str, command: str) -> Path:
    """A fresh directory; mkdir itself decides, so concurrent runs never share one."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(out_dir) / f"{command}-{stamp}"
    path, n = base, 0
    while True:
        try:
            path.mkdir(parents=True, exist_ok=False)
            return path
        except FileExistsError:
            n += 1
            path = Path(f"{base}-{n}")


def _write_record(path: Path, command: str, cfg: ExperimentConfig, chash: str, wall: float,
                  **fields) -> None:
    """A run's JSON record: the keys every command records (its name, the
    config and its hash, wall time, peak RSS) plus the command's ``fields``."""
    record = {"command": command, "config_hash": chash, "config": cfg.to_dict(),
              "wall_time_s": wall, "peak_rss_mb": _peak_rss_mb(), **fields}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of a finished child (pool workers), in MB;
    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _load_split(cfg: ExperimentConfig, seed: int):
    """Shared per-run protocol: load, seeded train/val split, z-scoring fit on
    the train rows only. Only those two row sets are standardized, and the
    raw matrix is freed on return. Returns (dataset summary, train, val)."""
    ds = load_dataset(cfg)
    plan = train_val_test_split(ds.n, seed=seed, val_frac=cfg.val_frac)
    if plan.val.size == 0:
        raise ConfigError(f"val_frac: {cfg.val_frac} of the dataset's {ds.n} rows "
                          "leaves no validation rows")
    return (ds.summary(), *standardize(ds, plan.train, plan.train, plan.val))


def _probe_report(stack: TrainedStack, train_ds: Dataset, val_ds: Dataset,
                  cfg: ExperimentConfig, seed: int):
    probe = train_probe(stack, train_ds.X, train_ds.y, probe_spec_for(cfg, seed))
    pred = probe.predict(val_ds.X)
    return evaluate(PredictionBatch(pred, val_ds.y, val_ds.s), eo_mode=cfg.eo_mode)


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg: ExperimentConfig) -> int:
    seed = cfg.seeds[0]
    summary, train_ds, val_ds = _load_split(cfg, seed)
    spec = stack_spec_for(cfg, in_dim=train_ds.d, variant="stacked")
    tcfg = train_config_for(cfg, seed)

    t0 = time.perf_counter()
    stack, logs = train_stack(spec, train_ds, tcfg, val=val_ds)
    wall = time.perf_counter() - t0

    report = _probe_report(stack, train_ds, val_ds, cfg, seed)
    chash = config_hash(cfg)
    run = _run_dir(cfg.out_dir, "fit")
    model_path = run / "model.fstk"
    stack.save(model_path)
    log_paths = []
    for i, records in enumerate(logs):
        p = run / f"train-level{i}.csv"
        _write_rows(p, LOG_COLUMNS, map(vars, records), f"config_hash={chash} seed={seed}")
        log_paths.append(str(p))

    _write_record(run / "run.json", "fit", cfg, chash, wall,
                  seed=seed, beta=spec.beta, criterion=cfg.criterion,
                  decoder_inactive=spec.alpha == 0.0, model_path=str(model_path),
                  log_paths=log_paths, probe_report=report.to_json(), dataset=summary,
                  n_train=train_ds.n, n_val=val_ds.n)
    print(f"fit: wrote {model_path} ({stack.n_levels} levels, out_dim={stack.out_dim})")
    print(f"fit: probe accuracy={report.accuracy:.4f} "
          f"delta_dp={_fmt(report.delta_dp)} (val n={val_ds.n})")
    print(f"fit: artifacts in {run}")
    return 0


def _fmt(x) -> str:
    if x is None:
        return "undefined"
    return f"{x:.4f}"


# ---------------------------------------------------------------------------
# transform

WRITE_ROWS = 8192  # output rows joined into one write


def _is_numeric(record: list[str]) -> bool:
    try:
        for x in record:
            float(x)
    except ValueError:
        return False
    return True


def _read_numeric_csv(path: Path) -> np.ndarray:
    """Float matrix from a CSV that may start with a non-numeric header row.

    The first non-blank record is the header if any of its fields is not a
    float. The body is parsed in one ``np.loadtxt`` call; only a file that
    call refuses is read again, record by record, to say what is wrong."""
    try:
        with open(path, newline="", encoding=TEXT_ENCODING) as fh:
            records = csv.reader(fh)
            first = next((r for r in records if r), None)
            skip = 0 if first is None or _is_numeric(first) else records.line_num
            if skip and next((r for r in records if r), None) is None:
                first = None  # a header and no body
        if first is None:
            return np.zeros((0, 0))
        try:
            X = np.loadtxt(path, delimiter=",", dtype=np.float64, skiprows=skip, ndmin=2,
                           comments=None, quotechar='"', encoding=TEXT_ENCODING)
        except ValueError as exc:  # a decode error too: _body_error's full read meets it again
            raise _body_error(path, skip, exc) from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc.reason}") from None
    bad_rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad_rows.size:
        i = bad_rows[0]
        raise DatasetError(f"non-finite value (nan or inf) in data row {i + 1} of {path}: "
                           f"{X[i, :5].tolist()}...")
    return X


def _body_error(path: Path, skip: int, exc: ValueError) -> DatasetError:
    """Why ``np.loadtxt`` refused the body below the first ``skip`` lines:
    ragged rows first, then the first row with a field ``float`` refuses,
    else a value ``float`` takes but ``loadtxt`` does not (``1_0``)."""
    widths, bad = set(), None
    with open(path, newline="", encoding=TEXT_ENCODING) as fh:
        records = csv.reader(fh)
        for r in records:
            if r and records.line_num > skip:
                widths.add(len(r))
                if bad is None and not _is_numeric(r):
                    bad = r
    if len(widths) > 1:
        return DatasetError(f"ragged CSV: row widths {sorted(widths)} in {path}")
    return DatasetError(f"non-numeric row in {path}: " + (f"{bad[:5]}..." if bad else str(exc)))


def cmd_transform(model_path: str, input_path: str, output_path: str) -> int:
    stack = TrainedStack.load(model_path)
    X = _read_numeric_csv(Path(input_path))
    if X.size == 0:
        Z = np.zeros((0, stack.out_dim))
    else:
        if X.shape[1] != stack.in_dim:
            raise DatasetError(
                f"width mismatch: model expects {stack.in_dim} input columns, "
                f"{input_path} has {X.shape[1]}"
            )
        Z = stack.encode(X)
    # the bytes csv.writer would write: repr of each float, "," and "\r\n"
    with open(output_path, "w", newline="") as fh:
        fh.write(",".join(f"z_{i}" for i in range(stack.out_dim)) + "\r\n")
        for start in range(0, len(Z), WRITE_ROWS):
            fh.write("".join(",".join(map(repr, row)) + "\r\n"
                             for row in Z[start:start + WRITE_ROWS].tolist()))
    print(f"transform: {Z.shape[0]} rows -> {output_path} ({stack.out_dim} columns)")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_job(cfg: ExperimentConfig, beta: float | None, seed: int, variant: str) -> dict:
    """One sweep row: train the variant's stack and score its codes with the
    probe. The "unfair" variant is the baseline: the identity stack (raw
    standardized features), untrained, with no beta."""
    row = {"beta": beta, "seed": seed, "variant": variant, "status": "ok",
           **{m: "" for m in METRIC_COLUMNS}}
    try:
        _, train_ds, val_ds = _load_split(cfg, seed)
        if variant == "unfair":
            stack = TrainedStack.identity(train_ds.d, provenance={"variant": "unfair"})
        else:
            spec = stack_spec_for(cfg, in_dim=train_ds.d, variant=variant, beta=beta)
            stack, _ = train_stack(spec, train_ds, train_config_for(cfg, seed), val=None)
        rj = _probe_report(stack, train_ds, val_ds, cfg, seed).to_json()
        row.update((m, rj[m]) for m in METRIC_COLUMNS)
    except RUN_ERRORS as exc:  # a failed run becomes a failed row, not a crash
        row["status"] = "failed"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _map(fn, calls: list[tuple], jobs: int) -> list:
    """``[fn(*c) for c in calls]``, run in one pool of ``jobs`` worker
    processes when ``jobs > 1``; results keep the order of ``calls``."""
    if jobs == 1:
        return [fn(*c) for c in calls]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pool runs only
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, *zip(*calls)))


def _write_rows(path: Path, columns, rows, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def _mean_rows(rows: list[dict], key_cols: tuple) -> list[dict]:
    """Arithmetic means of the metric columns over ok-rows per key, in
    ascending key order (betas by value). A metric undefined in any ok-row of
    a key is written empty, as :func:`downstream.aggregate_reports` does,
    rather than averaged over the rows where it is defined."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        key = tuple(row[c] for c in key_cols)
        groups.setdefault(key, []).append(row)
    means = []
    for key in sorted(groups):
        members = groups[key]
        out = dict(zip(key_cols, key))
        out["n"] = len(members)
        for m in METRIC_COLUMNS:
            vals = [r[m] for r in members]
            out[m] = "" if any(v in ("", None) for v in vals) else float(np.mean(vals))
        means.append(out)
    return means


def _vanilla_is_stacked(cfg: ExperimentConfig) -> bool:
    """One level: the vanilla spec equals the stacked one at every input width."""
    return len(cfg.levels) == 1


def cmd_sweep(cfg: ExperimentConfig, jobs: int = 1) -> int:
    if not cfg.betas:
        raise ConfigError("sweep.betas: must be non-empty for the sweep command")
    chash = config_hash(cfg)
    copy_vanilla = _vanilla_is_stacked(cfg)
    trained = VARIANTS[:1] if copy_vanilla else VARIANTS
    tasks = [(cfg, beta, seed, variant)
             for beta in cfg.betas for seed in cfg.seeds for variant in trained]
    baseline_tasks = [(cfg, None, seed, "unfair") for seed in cfg.seeds]

    t0 = time.perf_counter()
    results = _map(_sweep_job, tasks + baseline_tasks, jobs)
    rows, baseline = results[:len(tasks)], results[len(tasks):]
    if copy_vanilla:  # each stacked row, then its copy as the vanilla row
        rows = [r for row in rows for r in (row, {**row, "variant": "vanilla"})]
    wall = time.perf_counter() - t0

    run = _run_dir(cfg.out_dir, "sweep")  # made last: a config error leaves no directory

    comment = f"config_hash={chash}"
    _write_rows(run / "sweep.csv", SWEEP_COLUMNS, rows, comment)
    _write_rows(run / "baseline.csv", ("seed", "status") + METRIC_COLUMNS, baseline, comment)
    _write_rows(run / "sweep_means.csv", ("beta", "variant", "n") + METRIC_COLUMNS,
                _mean_rows(rows, ("beta", "variant")), comment)
    _write_rows(run / "baseline_means.csv", ("n",) + METRIC_COLUMNS,
                _mean_rows(baseline, ()), comment)

    failures = [r for r in rows + baseline if r["status"] != "ok"]
    _write_record(run / "run.json", "sweep", cfg, chash, wall,
                  n_rows=len(rows), n_failed=len(failures),
                  failures=[{k: r.get(k) for k in ("beta", "seed", "variant", "error")}
                            for r in failures])
    print(f"sweep: {len(rows)} runs ({len(failures)} failed) in {wall:.1f}s -> {run}")
    for r in failures:
        print(f"sweep: FAILED beta={r.get('beta')} seed={r.get('seed')} "
              f"variant={r.get('variant')}: {r.get('error')}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# table1


def cmd_table1(cfg: ExperimentConfig, jobs: int = 1) -> int:
    seed = cfg.seeds[0]
    # The tabulated protocol pins the loss weights; note the pin in run.json.
    forced = {"alpha": 0.0, "beta": 1.0, "gamma": 1.0}
    ds = load_dataset(cfg)
    if cfg.cv_folds > ds.n:
        raise ConfigError(f"cv_folds: {cfg.cv_folds} folds need at least as many rows, "
                          f"the dataset has {ds.n}")
    d, summary = ds.d, ds.summary()
    plan = train_val_test_split(ds.n, seed=seed, val_frac=cfg.val_frac)
    std = standardize(ds, plan.train)
    del ds  # CV runs on the standardized rows; the raw matrix is not needed again
    train_ds = std.subset(plan.train)

    def spec_for(variant):
        s = stack_spec_for(cfg, in_dim=d, variant=variant)
        return replace(s, **forced)

    t0 = time.perf_counter()
    tcfg = train_config_for(cfg, seed)
    stacked, _ = train_stack(spec_for("stacked"), train_ds, tcfg)
    lafr = (stacked if _vanilla_is_stacked(cfg)
            else train_stack(spec_for("vanilla"), train_ds, tcfg)[0])
    del train_ds
    encoders = {
        "unfair": TrainedStack.identity(d, provenance={"variant": "unfair"}),
        "lafr": lafr,
        "stacked": stacked,
    }

    labels = [(kind, variant) for kind in TABLE1_MODELS for variant in TABLE1_VARIANTS]
    calls = [(kind, encoders[variant], std, cfg.cv_folds, seed, cfg.eo_mode,
              probe_spec_for(cfg, seed), forest_spec_for(cfg, seed))
             for kind, variant in labels]
    results = _map(cross_validate, calls, jobs)
    wall = time.perf_counter() - t0

    cells: dict = {kind: {} for kind in TABLE1_MODELS}
    for (kind, variant), res in zip(labels, results):
        cells[kind][variant] = {f"{m}_{stat}": getattr(res, stat)[m]
                                for m in METRIC_COLUMNS for stat in ("mean", "std")}

    chash = config_hash(cfg)
    run = _run_dir(cfg.out_dir, "table1")
    _write_record(run / "table1.json", "table1", cfg, chash, wall,
                  dataset=summary, loss_weights=forced, k=cfg.cv_folds, seed=seed,
                  std_kind="sample (ddof=1)", cells=cells)
    csv_rows = [{"model": kind, "variant": variant,
                 **{k: ("" if v is None else v) for k, v in cells[kind][variant].items()}}
                for kind, variant in labels]
    _write_rows(run / "table1.csv",
                ("model", "variant", "delta_dp_mean", "delta_dp_std",
                 "accuracy_mean", "accuracy_std"),
                csv_rows, f"config_hash={chash} std=sample(ddof=1)")
    for kind in TABLE1_MODELS:
        parts = []
        for variant in TABLE1_VARIANTS:
            c = cells[kind][variant]
            dp = c["delta_dp_mean"]
            parts.append(f"{variant} dp={dp:.3f}±{c['delta_dp_std']:.3f}"
                         if dp is not None else f"{variant} dp=undefined")
        print(f"table1[{kind}]: " + "  ".join(parts))
    print(f"table1: artifacts in {run}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairstack",
        description="Train and evaluate fair representations of tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override: use this single seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes where the command supports it")

    add_config_args(sub.add_parser("fit", help="train one stacked model"))
    t = sub.add_parser("transform", help="encode a CSV of standardized feature rows")
    t.add_argument("--model", required=True, help="path to a saved .fstk model")
    t.add_argument("--input", required=True,
                   help="CSV of numeric feature rows, z-scored with the training split's "
                        "statistics (the model stores none)")
    t.add_argument("--output", required=True, help="where to write the encoded CSV")
    add_config_args(sub.add_parser("sweep", help="beta sweep over seeds and variants"))
    add_config_args(sub.add_parser("table1", help="cross-validated fairness table"))
    return parser


def _check_out_dir(out_dir: str) -> None:
    """Before any compute, and creating nothing: the nearest existing ancestor
    of ``out_dir`` must be a directory with write and search access."""
    path = Path(out_dir).absolute()
    near = next(p for p in (path, *path.parents) if os.path.lexists(p))  # "/" exists
    if not (near.is_dir() and os.access(near, os.W_OK | os.X_OK)):
        raise ConfigError(f"out_dir: {out_dir!r}: {near} is not a writable directory")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        if args.command == "transform":
            return cmd_transform(args.model, args.input, args.output)
        cfg = load_config(args.config, seed=args.seed)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        _check_out_dir(cfg.out_dir)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, jobs=args.jobs)
        if args.command == "table1":
            return cmd_table1(cfg, jobs=args.jobs)
        raise AssertionError(f"unhandled command {args.command}")
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
