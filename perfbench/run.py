"""fairstack benchmark: drive the CLI end to end, or replay a workload traced.

    python3 perfbench/run.py --workload fit-adult --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout. ``--trace 0`` runs the workload's CLI
commands as subprocesses for ``--seconds`` (at least the workload's minimum
number of repetitions), checks every output and reports the end-to-end
metrics as medians over the repetitions. ``--trace 1`` runs the command once
untraced, then replays it in-process with spans and counters around each
layer's public functions, and reports the per-layer metrics.

Human-readable lines go to stdout first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Every run dir
lives under ``.perfbench/`` in the checkout and is removed at exit; the last
result and span list of each workload stay there as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import measure
import tracing
from workloads import WORKLOADS, Workload, generate

SETUP_REPS = 5
# Every command of one run must end by then, so the run exits within 180 s.
RUN_BUDGET_S = 150.0
STARTUP_REPS = 3
MAX_REPS = 20


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _guarded(fn, *args):
    """Run an output check; a check that cannot read the output is a problem."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {}, [f"{fn.__name__}: {type(exc).__name__}: {exc}"]


class Bench:
    def __init__(self, repo: Path, workload: Workload, seed: int, root: Path):
        self.repo, self.w, self.seed, self.root = repo, workload, seed, root
        self.env = dict(os.environ)
        src = str(repo / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.tally = Tally()
        self._n = 0
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def _dir(self, label: str) -> Path:
        self._n += 1
        path = self.root / f"{self._n:03d}-{label}"
        path.mkdir()
        return path

    def _run(self, label: str, args: list) -> measure.Completed:
        work = self._dir(label)
        timeout = max(1.0, self.deadline - time.perf_counter())
        return measure.run([sys.executable, *args], self.env, work, work, timeout)

    def cli(self, *args) -> measure.Completed:
        return self._run(args[0], ["-m", "fairstack.cli", *map(str, args)])

    def startup(self) -> measure.Completed:
        return self._run("import", ["-c", "import fairstack.cli"])

    def setup(self):
        t0 = time.perf_counter()
        inputs = generate(self.w, self.seed, self.repo, self._dir("setup") / "inputs")
        res = self.startup()
        elapsed = time.perf_counter() - t0
        self.tally.record([] if res.returncode == 0 else
                          [f"import fairstack.cli exited {res.returncode}: {res.stderr[-300:]}"])
        return inputs, elapsed

    def main_command(self, inputs):
        """One run of the workload's main command; returns (result, run dir, head)."""
        out_dir = inputs.config.parent / "runs"
        before = set(out_dir.iterdir()) if out_dir.exists() else set()
        res = self.cli(self.w.command, "--config", inputs.config, *inputs.cli_seed,
                       "--jobs", self.w.jobs)
        if res.returncode != 0:
            self.tally.record([f"{self.w.command} exited {res.returncode}: {res.stderr[-500:]}"])
            return res, None, {}
        run, problems = checks.new_run_dir(out_dir, before)
        head = {}
        if run is not None:
            if self.w.command == "fit":
                head, problems = _guarded(checks.check_fit, run, 2)
            elif self.w.command == "sweep":
                betas = json.loads(inputs.config.read_text())["sweep"]["betas"]
                head, problems = _guarded(checks.check_sweep, run, betas)
            else:
                head, problems = _guarded(checks.check_table1, run)
        self.tally.record(problems)
        return res, run, {} if problems else head

    def transform(self, inputs, model: Path):
        res = self.cli("transform", "--model", model, "--input", inputs.transform_csv,
                       "--output", self.root / "encoded.csv")
        if res.returncode != 0:
            problems = [f"transform exited {res.returncode}: {res.stderr[-500:]}"]
        else:
            problems = _guarded(lambda: ({}, checks.check_transform(
                self.root / "encoded.csv", model, inputs.transform_X)))[1]
        self.tally.record(problems)
        return res


def timed_run(b: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [b.setup() for _ in range(SETUP_REPS)]
    inputs = setups[-1][0]
    rows = inputs.transform_X.shape[0]
    walls, rates, peaks, heads, runs, reps = [], [], [], [], [], []
    t0 = time.perf_counter()
    # Start another repetition only if a typical one still ends within --seconds.
    while time.perf_counter() < b.deadline and (len(walls) < b.w.min_reps or (
            time.perf_counter() - t0 + statistics.median(reps) <= seconds
            and len(walls) < MAX_REPS)):
        t_rep = time.perf_counter()
        res, run, head = b.main_command(inputs)
        walls.append(res.wall_s)
        peaks.append(res.peak_rss_mb)
        if head:
            heads.append(head)
        if run is not None:
            runs.append(run)
        model = inputs.model or (run / "model.fstk" if run else None)
        if model is not None and model.is_file():
            rates.append(rows / b.transform(inputs, model).wall_s)
        reps.append(time.perf_counter() - t_rep)
    if len(walls) < b.w.min_reps:
        b.tally.record([f"{len(walls)} of {b.w.min_reps} repetitions ran "
                        f"within {RUN_BUDGET_S} s"])
    if b.w.command == "fit":
        names = ["model.fstk", "train-level0.csv", "train-level1.csv"]
        for other in runs[1:]:
            b.tally.record(_guarded(lambda: ({}, checks.same_bytes(runs[0], other, names)))[1])

    def med(values):
        return statistics.median(values) if values else 0.0
    metrics = {
        "wall_s": med(walls),
        "transform_rows_per_s": med(rates),
        "peak_rss_mb": med(peaks),
        "setup_s": med([s for _, s in setups]),
        "accuracy": med([h["accuracy"] for h in heads]),
    }
    extra = {"reps": len(walls), "wall_s_all": walls, "setup_s_all": [s for _, s in setups],
             "determinism_pairs": max(len(runs) - 1, 0) if b.w.command == "fit" else None,
             "headline_delta_dp": med([h["delta_dp"] for h in heads
                                       if h.get("delta_dp") is not None])}
    return metrics, extra


def traced_run(b: Bench) -> tuple[dict, dict]:
    from fairstack.config import load_config

    inputs, _ = b.setup()
    startups = []
    for _ in range(STARTUP_REPS):
        res = b.startup()
        startups.append(res.wall_s)
    untraced, run, cli_head = b.main_command(inputs)

    cli_seed = int(inputs.cli_seed[1]) if inputs.cli_seed else None
    cfg = load_config(inputs.config, seed=cli_seed)
    tr = tracing.Tracer(b.w.name)
    work = b._dir("replay")
    with tracing.instrumented(tr):
        with tr.span("bench.main"):
            rp = tracing.REPLAYS[b.w.command](tr, cfg, work)
        with tr.span("bench.tail"):
            tracing.tail(tr, cfg, rp, inputs.transform_csv, work)
    overhead = tr.named("training.train_stack")[-1].duration / tracing.untraced_rerun(tr)

    # The replay must reproduce the CLI's result: tracing changes no arithmetic.
    problems = [f"replay headline {k}={rp.head.get(k)!r} differs from the CLI's "
                f"{cli_head.get(k)!r}" for k in ("accuracy", "delta_dp")
                if not _close(rp.head.get(k), cli_head.get(k))]
    if b.w.command == "fit" and run is not None and \
            rp.model_bytes != (run / "model.fstk").read_bytes():
        problems.append("replay model.fstk differs from the CLI's")
    b.tally.record(problems)

    metrics = tracing.layer_metrics(tr, inputs.transform_X.shape[0])
    jobs = sum(s.duration for s in tr.named("bench.job"))
    metrics.update({
        "cli.startup_s": statistics.median(startups),
        "cli.pool_efficiency": jobs / (b.w.jobs * untraced.wall_s),
        "trace.overhead_ratio": overhead,
        "trace.replay_to_cli_ratio": tr.named("bench.main")[0].duration / untraced.wall_s,
        "metrics.headline_delta_dp": rp.head.get("delta_dp") or 0.0,
    })
    extra = {"untraced_wall_s": untraced.wall_s, "spans": len(tr.spans),
             "span_list": tr.to_json()}
    return metrics, extra


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=0, abs_tol=1e-12)


def run_workload(repo: Path, w: Workload, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints its report and returns the result object."""
    out = repo / ".perfbench"
    out.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    b = Bench(repo, w, seed, root)
    try:
        metrics, extra = traced_run(b) if trace else timed_run(b, seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # BENCHMARK.json names the metrics each mode reports, with their units.
    listed = json.loads((repo / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in listed["per_layer" if trace else "end_to_end"]}
    metrics = {name: (metrics[name], unit) for name, unit in units.items()}
    env = measure.fingerprint(repo)
    spans = extra.pop("span_list", None)
    print(f"workload {w.name} (seed {seed}, trace {trace}): {w.rationale}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':32s} {b.tally.failed / b.tally.attempted:14.6g} fraction "
          f"({b.tally.failed} of {b.tally.attempted} operations)")
    print("  extra " + json.dumps(extra, sort_keys=True))
    for problem in b.tally.problems:
        print(f"  FAILED: {problem}")
    result = {"correct": b.tally.failed == 0, "attempted": b.tally.attempted,
              "failed": b.tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": w.name, "seed": seed, "trace": trace, "env": env,
              "extra": extra, "result": result, "spans": spans}
    (out / f"last-{w.name}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    repo = Path(__file__).resolve().parent.parent
    if not (repo / "src" / "fairstack" / "cli.py").is_file():
        print(f"perfbench: no fairstack sources under {repo / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(repo / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(repo, WORKLOADS[n], args.seed, args.seconds, args.trace)
               for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
