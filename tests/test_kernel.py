"""The explicit training kernel against the autodiff reference.

Training runs on :func:`model.level_grads` and :func:`nn.bce_step` with one
flat :class:`nn.Adam` per side. Here the same levels are also driven through
the graph (:func:`autodiff.level_loss` plus :func:`autodiff.backward`) and the
per-parameter :class:`oracles.AdamReference`, which is the trainer as it was
before the kernel, and the two must agree: per-parameter gradients, and
multi-epoch ``train_stack`` logs and encoder weights.

Agreement is byte-identity in every case, alpha > 0 included: the kernel
does the graph's element-wise math in the graph's order, and sums the three
heads' terms of d(objective)/dz in the order the graph's backward pass does.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairstack
from fairstack import autodiff as ad
from fairstack import training
from fairstack.autodiff import Var, forward, level_loss
from fairstack.data import batches, make_synthetic
from fairstack.model import CRITERIA, StackSpec, build, level_grads
from fairstack.nn import sigmoid
from fairstack.training import EpochRecord, TrainConfig, train_stack
from oracles import BCE_EPS, AdamReference, all_params, main_params


# ---------------------------------------------------------------------------
# per-parameter gradients of one main step


def _spec(criterion: str, alpha: float, hidden=(3,), adv_hidden: int = 4) -> StackSpec:
    return StackSpec(in_dim=7, levels=((*hidden, 5), (*hidden, 3)),
                     alpha=alpha, beta=1.3, gamma=0.9, criterion=criterion,
                     adv_hidden=adv_hidden, cls_hidden=4)


def _grad_cases():
    for crit in CRITERIA:
        for alpha in (0.0, 0.7):
            for linear_adv in (False, True):
                for hidden_layer in (False, True):
                    yield crit, alpha, linear_adv, hidden_layer, int(crit == "eopp")


@pytest.mark.parametrize("crit,alpha,linear_adv,hidden_layer,draw", list(_grad_cases()))
def test_kernel_gradients_match_the_graph(crit, alpha, linear_adv, hidden_layer, draw):
    # level 1's main step on level 0's codes; linear_adv: the adversary has
    # no hidden layer, hidden_layer: each encoder has one of width 4; draw
    # keys the data: the eopp cases draw their batches apart from dp and eo
    rng = np.random.default_rng([len(crit), int(10 * alpha), linear_adv, hidden_layer, draw])
    spec = _spec(crit, alpha, hidden=(4,) if hidden_layer else (),
                 adv_hidden=0 if linear_adv else 4)
    X = rng.normal(size=(16, 7))
    y = rng.integers(0, 2, 16)
    s = rng.integers(0, 2, 16)
    graph, kernel = build(spec, seed=3), build(spec, seed=3)
    for levels in (graph, kernel):  # move level 0 off the init, as training does
        for p in levels[0].encoder.params():
            p.value += 0.1 * np.random.default_rng(4).normal(size=p.value.shape)

    parts = level_loss(graph[1], graph[0].encoder.forward_value(X), y, s, alpha, 1.3, 0.9)
    ad.backward(parts.objective)
    rec, cls, adv = level_grads(kernel[1], kernel[0].encoder.forward_value(X), y, s, alpha,
                                1.3, 0.9)

    assert rec == parts.rec.item() and cls == parts.cls.item()
    assert (adv is None) == (parts.adv is None)
    if adv is not None:
        assert adv == parts.adv.item()
    for n, (g, k) in enumerate(zip(main_params(graph[1]), main_params(kernel[1]))):
        assert np.array_equal(k.grad, g.grad), f"parameter {n} {g.value.shape}"
    assert not any(p.grad.any() for p in kernel[1].adversary.params())  # frozen in the main step
    assert not any(p.grad.any() for p in all_params(kernel[0]))


@pytest.mark.parametrize("crit", CRITERIA)
def test_kernel_losses_match_the_graph_with_clamped_heads(crit):
    # both heads scaled up until their logits saturate, past where the BCE
    # of a sigmoid head clamped its predictions: the logit form still gives
    # the value and the gradient the same bytes on both paths
    rng = np.random.default_rng(9)
    spec = _spec(crit, 0.0)
    X = rng.normal(size=(32, 7))
    y, s = rng.integers(0, 2, 32), rng.integers(0, 2, 32)
    graph, kernel = build(spec, seed=2), build(spec, seed=2)
    for levels in (graph, kernel):
        for head in (levels[0].classifier, levels[0].adversary):
            for p in head.params():
                p.value *= 200.0
    parts = level_loss(graph[0], X, y, s, 0.0, 1.3, 0.9)
    ad.backward(parts.objective)
    rec, cls, adv = level_grads(kernel[0], X, y, s, 0.0, 1.3, 0.9)
    z = kernel[0].encoder.forward_value(X)
    y_hat = sigmoid(kernel[0].classifier.forward_value(z))
    assert ((y_hat < BCE_EPS) | (y_hat > 1.0 - BCE_EPS)).any()
    assert (rec, cls, adv) == (parts.rec.item(), parts.cls.item(), parts.adv.item())
    for g, k in zip(main_params(graph[0]), main_params(kernel[0])):
        assert np.array_equal(k.grad, g.grad)


def test_kernel_gradients_with_an_empty_eopp_subset():
    rng = np.random.default_rng(0)
    spec = _spec("eopp", 0.0)
    X = rng.normal(size=(8, 7))
    y = np.zeros(8, dtype=int)  # no row has y == 1: the adversary term drops out
    s = rng.integers(0, 2, 8)
    graph, kernel = build(spec, seed=0), build(spec, seed=0)
    parts = level_loss(graph[0], X, y, s, 0.0, 1.3, 0.9)
    ad.backward(parts.objective)
    rec, cls, adv = level_grads(kernel[0], X, y, s, 0.0, 1.3, 0.9)
    assert parts.adv is None and adv is None
    assert (rec, cls) == (parts.rec.item(), parts.cls.item())
    for g, k in zip(main_params(graph[0]), main_params(kernel[0])):
        assert np.array_equal(k.grad, g.grad)


# ---------------------------------------------------------------------------
# multi-epoch train_stack traces: the kernel trainer against the graph trainer


def _reference_run_level(level, level_index, X, y, s, alpha, beta, gamma, cfg, val,
                          eo_mode):
    """The level loop on the graph path, with a per-parameter Adam."""
    main = main_params(level)
    adam_main = AdamReference(main, lr=cfg.lr)
    adam_adv = AdamReference(level.adversary.params(), lr=cfg.lr)
    records = []
    for epoch in range(cfg.epochs):
        rec_sum = cls_sum = adv_sum = 0.0
        n_batches = n_adv_batches = 0
        for idx in batches(X.shape[0], cfg.batch_size, (cfg.seed, level_index), epoch):
            xb, yb, sb = X[idx], y[idx], s[idx]
            ad.zero_grads(main + level.adversary.params())
            parts = level_loss(level, xb, yb, sb, alpha, beta, gamma)
            ad.backward(parts.objective)
            adam_main.step()
            rec_sum += parts.rec.item()
            cls_sum += parts.cls.item()
            n_batches += 1
            if parts.adv is not None:
                adv_sum += parts.adv.item()
                n_adv_batches += 1

            z = level.encoder.forward_value(xb)
            if level.criterion == "eopp":
                sub = np.flatnonzero(yb == 1)
            else:
                sub = np.arange(yb.shape[0])
            if sub.size == 0:
                continue
            rows = Var(z[sub])
            if level.criterion == "eo":
                rows = ad.concat_cols(rows, Var(yb[sub].reshape(-1, 1).astype(float)))
            target = sb[sub].reshape(-1, 1).astype(float)
            ad.zero_grads(level.adversary.params())
            ad.backward(ad.bce_loss(forward(level.adversary, rows), target))
            adam_adv.step()
        adv_acc = dp = eo = eopp = math.nan
        if val is not None:
            zv, yv, sv = val
            zv = level.encoder.forward_value(zv)
            adv_acc = training._adversary_accuracy(level, zv, yv, sv)
            dp, eo, eopp = training._classifier_gaps(level, zv, yv, sv, eo_mode)
        records.append(EpochRecord(
            level=level_index, epoch=epoch, loss_rec=rec_sum / n_batches,
            loss_adv=adv_sum / n_adv_batches if n_adv_batches else math.nan,
            loss_class=cls_sum / n_batches, adv_acc=adv_acc,
            val_dp=dp, val_eo=eo, val_eopp=eopp))
    return records


def _data(rare_positives: bool = False):
    ds = make_synthetic(n=240, seed=5, n_noise=4)
    if rare_positives:  # about one row in ten has y == 1
        ds = dataclasses.replace(ds, y=(np.random.default_rng(6).random(ds.n) < 0.1).astype(int))
    return ds.subset(range(180)), ds.subset(range(180, 240))


TRACE_CASES = {
    # name: (StackSpec overrides, TrainConfig overrides)
    "dp": ({}, {}),
    "eo": ({"criterion": "eo"}, {}),
    "eopp": ({"criterion": "eopp"}, {}),
    "eopp-empty-batches": ({"criterion": "eopp"}, {"batch_size": 8}),
    "hidden-and-linear-heads": ({"hidden": (6,), "adv_hidden": 0, "cls_hidden": 0}, {}),
    "alpha": ({"alpha": 0.7}, {}),
    "alpha-eo": ({"alpha": 0.5, "criterion": "eo"}, {}),
    "alpha-eopp": ({"alpha": 0.7, "criterion": "eopp"}, {}),
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_train_stack_matches_the_graph_trainer(name, monkeypatch):
    spec_kw, cfg_kw = TRACE_CASES[name]
    train, val = _data(rare_positives="empty" in name)
    spec_kw = {"alpha": 0.0, "criterion": "dp", "adv_hidden": 5, "cls_hidden": 5, **spec_kw}
    hidden = spec_kw.pop("hidden", ())
    spec = StackSpec(in_dim=train.d, levels=((*hidden, 4), (*hidden, 2)),
                     beta=1.0, gamma=1.0, **spec_kw)
    cfg = TrainConfig(**{"epochs": 3, "batch_size": 32, "seed": 0, **cfg_kw})
    if "empty" in name:  # the case must reach batches without a y == 1 row
        assert any(not (train.y[idx] == 1).any()
                   for idx in batches(train.n, cfg.batch_size, (cfg.seed, 0), 0))

    stack, logs = train_stack(spec, train, cfg, val=val)
    with monkeypatch.context() as m:
        m.setattr(training, "_run_level", _reference_run_level)
        ref_stack, ref_logs = train_stack(spec, train, cfg, val=val)

    assert repr(logs) == repr(ref_logs)  # exact floats, and nan equals nan
    if "empty" in name:
        assert all(math.isfinite(r.loss_adv) for records in logs for r in records)
    for level, ref_level in zip(stack.levels, ref_stack.levels):
        for (w, b, _), (rw, rb, _) in zip(level, ref_level):
            assert np.array_equal(w, rw) and np.array_equal(b, rb)


# ---------------------------------------------------------------------------
# no graph in the hot path


GUARD_SCRIPT = """
import sys
import fairstack.cli
print(" ".join(m for m in ("concurrent.futures.process", "multiprocessing")
               if m in sys.modules) or "-")
from fairstack.data import make_synthetic
from fairstack.downstream import ProbeSpec, train_logreg, train_probe
from fairstack.model import CRITERIA, StackSpec
from fairstack.training import TrainConfig, train_stack

ds = make_synthetic(n=240, seed=5, n_noise=4)
train, val = ds.subset(range(180)), ds.subset(range(180, 240))
for crit in CRITERIA:
    spec = StackSpec(in_dim=train.d, levels=((4,), (2,)),
                     criterion=crit)
    stack, _ = train_stack(spec, train, TrainConfig(epochs=2, batch_size=32), val=val)
train_probe(stack, train.X, train.y, ProbeSpec(hidden=3, epochs=2))
train_logreg(train.X, train.y)
print(" ".join(sorted(m for m in sys.modules if m.startswith("fairstack"))))
"""


def test_training_builds_no_graph_per_batch():
    # production code never imports the graph engine: the CLI, the trainer
    # (two levels, every criterion), the probe and logreg run
    # in a fresh interpreter and leave it unloaded
    src = Path(fairstack.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    pool, loaded = subprocess.run([sys.executable, "-c", GUARD_SCRIPT], env=env, check=True,
                                  capture_output=True, text=True).stdout.splitlines()
    out = loaded.split()
    assert "fairstack.training" in out and "fairstack.cli" in out
    assert "fairstack.autodiff" not in out
    # the process pool (and multiprocessing) loads only when a command runs one
    assert pool == "-"
