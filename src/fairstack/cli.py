"""Command-line front end: fit, transform, sweep, table1.

``fit``, ``sweep`` and ``table1`` read one JSON config (see
:mod:`fairstack.config`), which sets the whole experiment but ``--seed`` and
``--jobs``, and write their artifacts into a fresh timestamped directory under
``out_dir`` — nothing is ever overwritten. All artifacts embed the config
hash and seed so a run can be traced back to its exact inputs.

``sweep`` runs one job per (seed, variant): it loads and splits the data
once, then trains and probes each beta in ``sweep.betas`` order, one row per
beta. Per seed the raw-feature baseline is the ``unfair`` variant of the same
job (identity stack, no training, one row and no beta). Rows are kept by
(beta, seed, variant) and written in that order. ``table1`` runs one job per
variant: the job trains the variant's encoder (none for ``unfair``), then
cross-validates it under each model; its lafr cells are the vanilla job's.
With one level the vanilla spec is the stacked one, so vanilla is not
trained, and each vanilla row and lafr cell is read from stacked's.
``--jobs N`` runs a command's jobs in one pool of N worker processes, fewer
when there are fewer jobs (table1 has three, two with one level). Those
workers are the only parallelism: importing this module sets each of
``BLAS_THREAD_VARS`` to 1 unless it is already set, so the CLI and its
workers run BLAS on one thread; code that does not import this module
keeps numpy's default.

``transform`` reads a UTF-8 CSV of numeric feature rows (a leading byte-order
mark is skipped). The model file stores no standardization, so the rows must
already be z-scored with the training split's statistics, as ``fit`` trained
on; ``fit`` records them in its ``run.json`` as ``norm_stats``. The CSV has an
optional non-numeric header row, ``,`` delimiters, ``"`` quotes, blank lines
skipped. The body is parsed by one ``np.loadtxt`` call into the float matrix,
so its memory is about that matrix, not a Python object per value; a value
``float`` accepts but ``loadtxt`` does not (``1_0``, non-ASCII digits) is
non-numeric. A row whose code is not finite fails the command, and nothing is
written. The codes are written as ``repr`` floats joined by ``,`` with
``\\r\\n`` line ends, the bytes ``csv.writer`` writes.

Exit codes: 0 success, 1 runtime failure (training/IO), 2 config error, 130
interrupted (SIGINT, to the process group or to the parent alone: one
``interrupted`` line; the pool's workers end silently).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import signal
import sys
import time
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
from .downstream import aggregate_metrics, cross_validate, train_probe
from .metrics import PredictionBatch, UndefinedMetricError, evaluate
from .model import ModelFormatError, SpecError, TrainedStack
from .training import LOG_COLUMNS, DivergenceError, train_stack

METRIC_COLUMNS = ("accuracy", "delta_dp", "delta_eo", "delta_eopp")
SWEEP_COLUMNS = ("beta", "seed", "variant") + ("status",) + METRIC_COLUMNS
VARIANTS = ("stacked", "vanilla")
TABLE1_VARIANTS = ("unfair", "lafr", "stacked")
TABLE1_MODELS = ("logreg", "forest")
# What main maps to exit code 2 (the config) and to exit code 1 (the run, a
# failed allocation included); a sweep job turns a run error into a failed row.
CONFIG_ERRORS = (ConfigError, SpecError)
RUN_ERRORS = (DivergenceError, DatasetError, ModelFormatError, UndefinedMetricError, OSError,
              MemoryError)


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
    stack, logs = train_stack(spec, train_ds, tcfg, val=val_ds, eo_mode=cfg.eo_mode)
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
                  seed=seed, model_path=str(model_path), log_paths=log_paths,
                  probe_report=report.to_json(), dataset=summary,
                  n_train=train_ds.n, n_val=val_ds.n, norm_stats=train_ds.norm_stats)
    print(f"fit: wrote {model_path} ({stack.n_levels} levels, out_dim={stack.out_dim})")
    print(f"fit: probe accuracy={report.accuracy:.4f} "
          f"delta_dp={report.delta_dp:.4f} (val n={val_ds.n})")
    print(f"fit: artifacts in {run}")
    return 0


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
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite code is an error
            Z = stack.encode(X)
        bad_rows = np.flatnonzero(~np.isfinite(Z).all(axis=1))
        if bad_rows.size:
            raise DatasetError(f"non-finite code (nan or inf) for data row {bad_rows[0] + 1} "
                               f"of {input_path}: the input overflows the model")
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


def _sweep_job(cfg: ExperimentConfig, seed: int, variant: str) -> list[dict]:
    """One (seed, variant) job: load and split once, then train and probe at
    each beta in ``sweep.betas`` order, one row per beta. The "unfair" variant
    is the baseline: one row, no beta, the untrained identity stack. A run
    error fails only its own row (a failed load is tried again for the next)."""
    betas = (None,) if variant == "unfair" else cfg.betas
    rows = [{"beta": beta, "seed": seed, "variant": variant, "status": "ok",
             **{m: "" for m in METRIC_COLUMNS}} for beta in betas]
    split = None
    for row in rows:
        try:
            split = split or _load_split(cfg, seed)
            _, train_ds, val_ds = split
            if variant == "unfair":
                stack = TrainedStack.identity(train_ds.d)
            else:
                spec = stack_spec_for(cfg, in_dim=train_ds.d, variant=variant, beta=row["beta"])
                stack, _ = train_stack(spec, train_ds, train_config_for(cfg, seed), val=None)
            rj = _probe_report(stack, train_ds, val_ds, cfg, seed).to_json()
            row.update((m, rj[m]) for m in METRIC_COLUMNS)
        except RUN_ERRORS as exc:  # a failed run becomes a failed row, not a crash
            row["status"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
    return rows


def _map(fn, calls: list[tuple], jobs: int) -> list:
    """``[fn(*c) for c in calls]``, run in one pool of ``min(jobs, len(calls))``
    worker processes when that is above 1; results keep the order of ``calls``.
    A worker ends at SIGINT without a traceback; the parent ends any left and reports it."""
    workers = min(jobs, len(calls))
    if workers <= 1:
        return [fn(*c) for c in calls]
    import multiprocessing  # loaded with the pool, for pool runs only
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_DFL)) as ex:
        try:
            return list(ex.map(fn, *zip(*calls)))
        except KeyboardInterrupt:  # else the pool's exit waits out the running jobs
            for child in multiprocessing.active_children():
                child.terminate()
            raise


def _write_rows(path: Path, columns, rows, comment: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def _mean_rows(rows: list[dict], key_cols: tuple) -> list[dict]:
    """Means of the metric columns over ok-rows per key, in ascending key
    order (betas by value), by :func:`downstream.aggregate_metrics`: a metric
    undefined in any ok-row of a key is written empty."""
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
        mean, _ = aggregate_metrics([{m: r[m] for m in METRIC_COLUMNS} for r in members])
        out.update((m, "" if v is None else v) for m, v in mean.items())
        means.append(out)
    return means


def _trained_variants(cfg: ExperimentConfig) -> tuple[str, ...]:
    """stacked, and vanilla unless one level makes its spec the stacked one."""
    return VARIANTS[:1] if len(cfg.levels) == 1 else VARIANTS


def cmd_sweep(cfg: ExperimentConfig, jobs: int = 1) -> int:
    if not cfg.betas:
        raise ConfigError("sweep.betas: must be non-empty for the sweep command")
    chash = config_hash(cfg)
    trained = _trained_variants(cfg)
    calls = [(cfg, seed, variant) for variant in trained + ("unfair",) for seed in cfg.seeds]

    t0 = time.perf_counter()
    by_key = {(r["beta"], r["seed"], r["variant"]): r
              for job_rows in _map(_sweep_job, calls, jobs) for r in job_rows}
    # an untrained vanilla reads its stacked row
    rows = [{**by_key[beta, seed, v if v in trained else "stacked"], "variant": v}
            for beta in cfg.betas for seed in cfg.seeds for v in VARIANTS]
    baseline = [by_key[None, seed, "unfair"] for seed in cfg.seeds]
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


def _table1_job(cfg: ExperimentConfig, std: Dataset, train_rows, variant: str) -> dict:
    """One table1 variant: its encoder (identity for "unfair", else trained on
    ``std``'s train rows), then its CV result on ``std`` per ``TABLE1_MODELS``."""
    seed = cfg.seeds[0]
    if variant == "unfair":
        stack = TrainedStack.identity(std.d)
    else:
        spec = stack_spec_for(cfg, in_dim=std.d, variant=variant)
        stack = train_stack(spec, std.subset(train_rows), train_config_for(cfg, seed))[0]
    return {kind: cross_validate(kind, stack, std, cfg.cv_folds, seed, cfg.eo_mode, None,
                                 forest_spec_for(cfg, seed)) for kind in TABLE1_MODELS}


def cmd_table1(cfg: ExperimentConfig, jobs: int = 1) -> int:
    seed = cfg.seeds[0]
    ds = load_dataset(cfg)
    if cfg.cv_folds > ds.n:
        raise ConfigError(f"cv_folds: {cfg.cv_folds} folds need at least as many rows, "
                          f"the dataset has {ds.n}")
    summary = ds.summary()
    plan = train_val_test_split(ds.n, seed=seed, val_frac=cfg.val_frac)
    std = standardize(ds, plan.train)
    del ds  # CV runs on the standardized rows; the raw matrix is not needed again

    t0 = time.perf_counter()
    calls = [(cfg, std, plan.train, v) for v in _trained_variants(cfg) + ("unfair",)]
    results = {call[-1]: cv for call, cv in zip(calls, _map(_table1_job, calls, jobs))}
    wall = time.perf_counter() - t0
    results["lafr"] = results.get("vanilla", results["stacked"])  # one level: stacked's encoder
    cells = {kind: {v: {f"{m}_{stat}": getattr(results[v][kind], stat)[m]
                        for m in METRIC_COLUMNS for stat in ("mean", "std")}
                    for v in TABLE1_VARIANTS} for kind in TABLE1_MODELS}

    chash = config_hash(cfg)
    run = _run_dir(cfg.out_dir, "table1")
    _write_record(run / "table1.json", "table1", cfg, chash, wall,
                  dataset=summary, seed=seed, cells=cells)
    csv_rows = [{"model": kind, "variant": variant,
                 **{k: ("" if v is None else v) for k, v in cells[kind][variant].items()}}
                for kind in TABLE1_MODELS for variant in TABLE1_VARIANTS]
    _write_rows(run / "table1.csv",
                ("model", "variant", "delta_dp_mean", "delta_dp_std",
                 "accuracy_mean", "accuracy_std"),
                csv_rows, f"config_hash={chash} std=sample(ddof=1)")
    for kind in TABLE1_MODELS:
        print(f"table1[{kind}]: " + "  ".join(
            f"{v} dp={c['delta_dp_mean']:.3f}±{c['delta_dp_std']:.3f}"
            for v, c in cells[kind].items()))
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
                   help="CSV of numeric feature rows, z-scored with the norm_stats that fit "
                        "records in its run.json (the model stores none)")
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
    except RUN_ERRORS as exc:  # a bare MemoryError has no message: name it
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
