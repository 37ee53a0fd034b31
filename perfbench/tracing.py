"""Traced in-process replay of a workload, for the per-layer metrics.

The replay calls the same public functions the CLI command calls, in the same
order. While it runs, wrappers installed on those functions record a span
(name, start, end, parent, workload) around each call, and counters count
``Var`` constructions, ``backward`` calls, ``Adam.step`` calls (and their
time) and training batches. Each span keeps the counter deltas over its
interval. Spans stay in memory until the run ends. Nothing is added inside
``src/``: every wrapper is set here and removed when the replay ends.

After the command's own calls, a tail exercises the layers the command does
not reach (the probe on table1, the model file and transform path on sweep
and table1, the logreg and forest CV on fit and sweep) on the workload's own
data and stack, so that every per-layer metric exists on every workload.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

COUNTERS = ("nodes", "backward", "adam_steps", "adam_s", "batches")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    workload: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        before = dict(self.counts)
        s = Span(name, time.perf_counter(), parent, self.workload, attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            s.counts = {k: self.counts[k] - before[k] for k in COUNTERS}

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict:
        """Seconds per layer (the span name's prefix) not covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict = {}
        for s, c in zip(self.spans, child):
            layer = s.name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + s.duration - c
        return out

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "workload": s.workload, "counts": s.counts,
                 "attrs": {k: v for k, v in s.attrs.items() if k != "call"}}
                for s in self.spans]


@contextlib.contextmanager
def instrumented(tr: Tracer):
    """Install the span and counter wrappers; restore the originals on exit."""
    from fairstack import (autodiff, cli, config, data, downstream, forest, metrics, model,
                           nn, training)
    from fairstack.model import spec_hash

    saved = []

    def patch(owner, name, new):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def spanned(owner, name, span_name, attrs=None, keep_call=False):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tr.span(span_name) as s:
                out = fn(*args, **kwargs)
                if attrs:
                    s.attrs.update(attrs(args, kwargs, out))
                if keep_call:
                    s.attrs["call"] = (args, kwargs)
                return out
        return wrapper

    def patch_span(owner, name, span_name, attrs=None, keep_call=False):
        patch(owner, name, spanned(owner, name, span_name, attrs, keep_call))

    counts = tr.counts
    var_init = autodiff.Var.__init__
    backward = autodiff.backward
    adam_step = nn.Adam.step
    batches = training.batches

    def counting_init(self, *args, **kwargs):
        counts["nodes"] += 1
        var_init(self, *args, **kwargs)

    def counting_backward(loss):
        counts["backward"] += 1
        backward(loss)

    def timed_step(self):
        t0 = time.perf_counter()
        adam_step(self)
        counts["adam_s"] += time.perf_counter() - t0
        counts["adam_steps"] += 1

    def counting_batches(*args, **kwargs):
        out = batches(*args, **kwargs)
        counts["batches"] += len(out)
        return out

    TS = model.TrainedStack
    try:
        patch(autodiff.Var, "__init__", counting_init)
        patch(autodiff, "backward", counting_backward)
        patch(nn.Adam, "step", timed_step)
        patch(training, "batches", counting_batches)
        patch_span(config, "load_dataset", "config.load_dataset")
        patch_span(data, "standardize", "data.standardize")
        patch_span(training, "train_stack", "training.train_stack",
                   lambda a, k, out: {"spec_hash": spec_hash(a[0]), "levels": len(a[0].levels),
                                      "epochs": a[2].epochs},
                   keep_call=True)
        patch_span(downstream, "train_probe", "downstream.train_probe")
        patch_span(downstream, "train_logreg", "downstream.train_logreg")
        patch_span(downstream, "train_forest", "forest.train_forest",
                   lambda a, k, out: {"trees": len(out.trees),
                                      "nodes": sum(t.feature.size for t in out.trees)})
        patch_span(downstream, "cross_validate", "downstream.cross_validate",
                   lambda a, k, out: {"kind": a[0], "k": out.meta["k"]})
        patch_span(downstream, "evaluate", "metrics.evaluate")
        patch_span(metrics, "evaluate", "metrics.evaluate")
        patch_span(forest.RandomForest, "predict", "forest.predict",
                   lambda a, k, out: {"rows": len(out)})
        patch_span(TS, "save", "model.save")
        load = TS.__dict__["load"].__func__
        patch(TS, "load", classmethod(functools.wraps(load)(
            lambda cls, path: _in_span(tr, "model.load", load, cls, path))))
        patch_span(TS, "encode", "model.encode",
                   lambda a, k, out: {"rows": out.shape[0], "levels": a[0].n_levels})
        patch_span(cli, "cmd_transform", "cli.cmd_transform")
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


def _in_span(tr: Tracer, name: str, fn, *args):
    with tr.span(name):
        return fn(*args)


# ---------------------------------------------------------------------------
# Replays: the CLI commands' calls, through the (wrapped) public functions.


@dataclass
class Replay:
    stack: object            # the workload's headline stack
    std: object              # standardized full dataset
    train: object
    val: object
    head: dict               # headline accuracy / delta_dp
    model_bytes: bytes | None = None


def _split(cfg, seed):
    from fairstack import config, data
    ds = config.load_dataset(cfg)
    plan = data.train_val_test_split(ds.n, seed=seed, val_frac=cfg.val_frac)
    std = data.standardize(ds, plan.train)
    return std, std.subset(plan.train), std.subset(plan.val)


def _probe_report(stack, train, val, cfg, seed):
    from fairstack import config, downstream, metrics
    probe = downstream.train_probe(stack, train.X, train.y, config.probe_spec_for(cfg, seed))
    batch = metrics.PredictionBatch(probe.predict(val.X), val.y, val.s)
    return metrics.evaluate(batch, eo_mode=cfg.eo_mode)


def _head(report) -> dict:
    return {"accuracy": report.accuracy, "delta_dp": report.delta_dp}


def replay_fit(tr: Tracer, cfg, work: Path) -> Replay:
    from fairstack import config, training
    seed = cfg.seeds[0]
    with tr.span("bench.job"):
        std, train, val = _split(cfg, seed)
        spec = config.stack_spec_for(cfg, in_dim=std.d, variant="stacked")
        stack, _ = training.train_stack(spec, train, config.train_config_for(cfg, seed), val=val)
        report = _probe_report(stack, train, val, cfg, seed)
        path = work / "replay-model.fstk"
        stack.save(path)
    return Replay(stack, std, train, val, _head(report), path.read_bytes())


def replay_sweep(tr: Tracer, cfg, work: Path) -> Replay:
    from fairstack import cli, config, model, training
    first = None
    heads = []
    top = max(cfg.betas)
    for beta in cfg.betas:
        for seed in cfg.seeds:
            for variant in cli.VARIANTS:
                with tr.span("bench.job"):
                    std, train, val = _split(cfg, seed)
                    spec = config.stack_spec_for(cfg, in_dim=std.d, variant=variant, beta=beta)
                    stack, _ = training.train_stack(spec, train,
                                                    config.train_config_for(cfg, seed), val=None)
                    report = _probe_report(stack, train, val, cfg, seed)
                if variant == "stacked" and beta == top:
                    heads.append(_head(report))
                    first = first or Replay(stack, std, train, val, {})
    for seed in cfg.seeds:
        with tr.span("bench.job"):
            std, train, val = _split(cfg, seed)
            _probe_report(model.TrainedStack.identity(std.d), train, val, cfg, seed)
    first.head = {k: sum(h[k] for h in heads) / len(heads) for k in ("accuracy", "delta_dp")}
    return first


def replay_table1(tr: Tracer, cfg, work: Path) -> Replay:
    from fairstack import cli, config, data, downstream, model, training
    seed = cfg.seeds[0]
    forced = {"alpha": 0.0, "beta": 1.0, "gamma": 1.0}
    ds = config.load_dataset(cfg)
    plan = data.train_val_test_split(ds.n, seed=seed, val_frac=cfg.val_frac)
    std = data.standardize(ds, plan.train)
    train = std.subset(plan.train)
    tcfg = config.train_config_for(cfg, seed)
    encoders = {"unfair": model.TrainedStack.identity(ds.d)}
    for variant, name in (("stacked", "stacked"), ("vanilla", "lafr")):
        with tr.span("bench.job"):
            spec = replace(config.stack_spec_for(cfg, in_dim=ds.d, variant=variant), **forced)
            encoders[name], _ = training.train_stack(spec, train, tcfg)
    head = {}
    for kind in cli.TABLE1_MODELS:
        for variant in cli.TABLE1_VARIANTS:
            with tr.span("bench.job"):
                res = downstream.cross_validate(
                    kind, encoders[variant], std, k=cfg.cv_folds, seed=seed,
                    eo_mode=cfg.eo_mode, probe_spec=config.probe_spec_for(cfg, seed),
                    forest_spec=config.forest_spec_for(cfg, seed))
            if (kind, variant) == ("logreg", "stacked"):
                head = {k: res.mean[k] for k in ("accuracy", "delta_dp")}
    return Replay(encoders["stacked"], std, train, std.subset(plan.val), head)


REPLAYS = {"fit": replay_fit, "sweep": replay_sweep, "table1": replay_table1}


def tail(tr: Tracer, cfg, rp: Replay, transform_csv: Path, work: Path) -> None:
    """Reach the layers the command itself does not, at the workload's shapes."""
    from fairstack import cli, config, downstream, model
    seed = cfg.seeds[0]
    if not tr.named("downstream.train_probe"):
        _probe_report(rp.stack, rp.train, rp.val, cfg, seed)
    path = work / "tail-model.fstk"
    rp.stack.save(path)
    model.TrainedStack.load(path)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_transform(str(path), str(transform_csv), str(work / "tail-encoded.csv"))
    if not tr.named("downstream.cross_validate"):
        for kind in ("logreg", "forest"):
            downstream.cross_validate(kind, rp.stack, rp.std, k=cfg.cv_folds, seed=seed,
                                      eo_mode=cfg.eo_mode,
                                      forest_spec=config.forest_spec_for(cfg, seed))


def untraced_rerun(tr: Tracer) -> float:
    """Seconds for the last traced ``train_stack`` call, repeated untraced.
    The last call runs warm, as the repeat does."""
    from fairstack import training
    args, kwargs = tr.named("training.train_stack")[-1].attrs["call"]
    t0 = time.perf_counter()
    training.train_stack(*args, **kwargs)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans


def _mean_duration(spans) -> float:
    return sum(s.duration for s in spans) / len(spans)


def layer_metrics(tr: Tracer, n_transform_rows: int) -> dict:
    train = tr.named("training.train_stack")
    t_train = sum(s.duration for s in train)
    n_batches = sum(s.counts["batches"] for s in train)
    level_epochs = sum(s.attrs["levels"] * s.attrs["epochs"] for s in train)
    cv = {kind: [s for s in tr.named("downstream.cross_validate") if s.attrs["kind"] == kind]
          for kind in ("logreg", "forest")}
    forests = tr.named("forest.train_forest")
    n_trees = sum(s.attrs["trees"] for s in forests)
    predicts = tr.named("forest.predict")
    encodes = [s for s in tr.named("model.encode") if s.attrs["levels"] > 0]
    out = {
        "training.batch_us": 1e6 * t_train / n_batches,
        "training.level_epoch_ms": 1e3 * t_train / level_epochs,
        "training.distinct_spec_ratio":
            len({s.attrs["spec_hash"] for s in train}) / len(train),
        "autodiff.nodes_per_batch": sum(s.counts["nodes"] for s in train) / n_batches,
        "autodiff.backward_per_batch": sum(s.counts["backward"] for s in train) / n_batches,
        "nn.adam_step_us": 1e6 * sum(s.counts["adam_s"] for s in train)
                           / sum(s.counts["adam_steps"] for s in train),
        "downstream.probe_fit_s": _mean_duration(tr.named("downstream.train_probe")),
        "downstream.logreg_fit_s": _mean_duration(tr.named("downstream.train_logreg")),
        "downstream.cv_fold_s.logreg": sum(s.duration for s in cv["logreg"])
                                       / sum(s.attrs["k"] for s in cv["logreg"]),
        "downstream.cv_fold_s.forest": sum(s.duration for s in cv["forest"])
                                       / sum(s.attrs["k"] for s in cv["forest"]),
        "forest.tree_ms": 1e3 * sum(s.duration for s in forests) / n_trees,
        "forest.nodes_per_tree": sum(s.attrs["nodes"] for s in forests) / n_trees,
        "forest.predict_rows_per_s": sum(s.attrs["rows"] for s in predicts)
                                     / sum(s.duration for s in predicts),
        "model.encode_rows_per_s": sum(s.attrs["rows"] for s in encodes)
                                   / sum(s.duration for s in encodes),
        "model.load_ms": 1e3 * _mean_duration(tr.named("model.load")),
        "model.save_ms": 1e3 * _mean_duration(tr.named("model.save")),
        "cli.transform_rows_per_s": n_transform_rows
                                    / _mean_duration(tr.named("cli.cmd_transform")),
        "config.load_dataset_ms": 1e3 * _mean_duration(tr.named("config.load_dataset")),
        "data.standardize_ms": 1e3 * _mean_duration(tr.named("data.standardize")),
        "metrics.evaluate_us": 1e6 * _mean_duration(tr.named("metrics.evaluate")),
    }
    for layer, seconds in tr.self_times().items():
        if layer != "bench":
            out[f"self_s.{layer}"] = seconds
    return out
