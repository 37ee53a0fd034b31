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
from fairstack.model import CRITERIA, LevelSpec, StackSpec, build, level_grads
from fairstack.nn import BCE_EPS
from fairstack.training import EpochRecord, TrainConfig, train_stack
from oracles import AdamReference, all_params, main_params


# ---------------------------------------------------------------------------
# per-parameter gradients of one main step


def _spec(criterion: str, alpha: float, root_mse: bool = False, hidden=(3,),
          adv_hidden: int = 4) -> StackSpec:
    return StackSpec(levels=(LevelSpec(in_dim=7, latent=5, hidden=hidden),
                             LevelSpec(in_dim=5, latent=3, hidden=hidden)),
                     alpha=alpha, beta=1.3, gamma=0.9, criterion=criterion,
                     adv_hidden=adv_hidden, cls_hidden=4, root_mse=root_mse)


def _grad_cases():
    for crit in CRITERIA:
        for alpha in (0.0, 0.7):
            for root_mse in (False, True):
                for fine_tune in (False, True):
                    labels = (0, 1) if crit == "eopp" else (0,)
                    for label in labels:
                        yield crit, alpha, root_mse, fine_tune, label


@pytest.mark.parametrize("crit,alpha,root_mse,fine_tune,label", list(_grad_cases()))
def test_kernel_gradients_match_the_graph(crit, alpha, root_mse, fine_tune, label):
    rng = np.random.default_rng([len(crit), int(10 * alpha), root_mse, fine_tune, label])
    spec = _spec(crit, alpha, root_mse, hidden=(4,) if fine_tune else (),
                 adv_hidden=0 if root_mse else 4)
    X = rng.normal(size=(16, 7))
    y = rng.integers(0, 2, 16)
    s = rng.integers(0, 2, 16)
    graph, kernel = build(spec, seed=3), build(spec, seed=3)
    for levels in (graph, kernel):  # move off the init so both prefixes matter
        for p in levels[0].encoder.params():
            p.value += 0.1 * np.random.default_rng(4).normal(size=p.value.shape)

    z_graph: Var = Var(X if fine_tune else graph[0].encoder.forward_value(X))
    if fine_tune:
        z_graph = forward(graph[0].encoder, z_graph)
    parts = level_loss(graph[1], z_graph, y, s, alpha, 1.3, 0.9, label, root_mse)
    ad.backward(parts.objective)

    prefix = kernel[:1] if fine_tune else []
    x = X if fine_tune else kernel[0].encoder.forward_value(X)
    rec, cls, adv = level_grads(kernel[1], x, y, s, alpha, 1.3, 0.9, label, root_mse, prefix)

    assert rec == parts.rec.item() and cls == parts.cls.item()
    assert (adv is None) == (parts.adv is None)
    if adv is not None:
        assert adv == parts.adv.item()
    trained = list(zip(main_params(graph[1]), main_params(kernel[1])))
    if fine_tune:
        trained += list(zip(graph[0].encoder.params(), kernel[0].encoder.params()))
    for n, (g, k) in enumerate(trained):
        assert np.array_equal(k.grad, g.grad), f"parameter {n} {g.value.shape}"
    assert not any(p.grad.any() for p in kernel[1].adversary.params())  # frozen in the main step
    if not fine_tune:
        assert not any(p.grad.any() for p in all_params(kernel[0]))


@pytest.mark.parametrize("crit", CRITERIA)
def test_kernel_losses_match_the_graph_with_clamped_heads(crit):
    # both heads scaled up until predictions sit on the BCE clamp, where the
    # value and the gradient each read the clamped predictions
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
    y_hat = kernel[0].classifier.forward_value(z)
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
    parts = level_loss(graph[0], X, y, s, 0.0, 1.3, 0.9, eopp_label=1)
    ad.backward(parts.objective)
    rec, cls, adv = level_grads(kernel[0], X, y, s, 0.0, 1.3, 0.9, eopp_label=1)
    assert parts.adv is None and adv is None
    assert (rec, cls) == (parts.rec.item(), parts.cls.item())
    for g, k in zip(main_params(graph[0]), main_params(kernel[0])):
        assert np.array_equal(k.grad, g.grad)


# ---------------------------------------------------------------------------
# multi-epoch train_stack traces: the kernel trainer against the graph trainer


def _reference_run_level(level, level_index, prefix, X0, y, s, alpha, beta, gamma,
                         root_mse, cfg, val):
    """The level loop on the graph path, with a per-parameter Adam."""
    main = main_params(level) + [p for lv in prefix for p in lv.encoder.params()]
    adam_main = AdamReference(main, lr=cfg.lr)
    adam_adv = AdamReference(level.adversary.params(), lr=cfg.adversary_lr)
    records = []
    for epoch in range(cfg.epochs):
        rec_sum = cls_sum = adv_sum = 0.0
        n_batches = n_adv_batches = 0
        for idx in batches(X0.shape[0], cfg.batch_size, (cfg.seed, level_index), epoch):
            xb, yb, sb = X0[idx], y[idx], s[idx]
            ad.zero_grads(main + level.adversary.params())
            z_in = Var(xb)
            for lv in prefix:
                z_in = forward(lv.encoder, z_in)
            parts = level_loss(level, z_in, yb, sb, alpha, beta, gamma,
                               eopp_label=cfg.eopp_adv_label, root_mse=root_mse)
            ad.backward(parts.objective)
            adam_main.step()
            rec_sum += parts.rec.item()
            cls_sum += parts.cls.item()
            n_batches += 1
            if parts.adv is not None:
                adv_sum += parts.adv.item()
                n_adv_batches += 1

            z = xb
            for lv in [*prefix, level]:
                z = lv.encoder.forward_value(z)
            if level.criterion == "eopp":
                sub = np.flatnonzero(yb == cfg.eopp_adv_label)
            else:
                sub = np.arange(yb.shape[0])
            if sub.size == 0:
                continue
            rows = Var(z[sub])
            if level.criterion == "eo":
                rows = ad.concat_cols(rows, Var(yb[sub].reshape(-1, 1).astype(float)))
            target = sb[sub].reshape(-1, 1).astype(float)
            for _ in range(cfg.adv_steps):
                ad.zero_grads(level.adversary.params())
                ad.backward(ad.bce_loss(forward(level.adversary, rows), target))
                adam_adv.step()
        adv_acc = dp = eo = eopp = math.nan
        if val is not None:
            zv, yv, sv = val
            for lv in [*prefix, level]:
                zv = lv.encoder.forward_value(zv)
            adv_acc = training._adversary_accuracy(level, zv, yv, sv, cfg.eopp_adv_label)
            dp, eo, eopp = training._classifier_gaps(level, zv, yv, sv)
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
    "eopp-label-0": ({"criterion": "eopp"}, {}),
    "eopp-label-1-empty-batches": ({"criterion": "eopp"},
                                   {"eopp_adv_label": 1, "batch_size": 8}),
    "hidden-and-linear-heads": ({"hidden": (6,), "adv_hidden": 0, "cls_hidden": 0}, {}),
    "adv-steps-2": ({}, {"adv_steps": 2, "lr_adv": 0.02}),
    "warm-start": ({"criterion": "eo"}, {"adversary_warm_start": True}),
    "fine-tune": ({"criterion": "eopp"}, {"freeze_previous": False}),
    "alpha": ({"alpha": 0.7}, {}),
    "alpha-root-mse-eo": ({"alpha": 0.5, "root_mse": True, "criterion": "eo"}, {}),
    "alpha-fine-tune-eopp": ({"alpha": 0.7, "criterion": "eopp"},
                             {"freeze_previous": False, "eopp_adv_label": 1}),
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_train_stack_matches_the_graph_trainer(name, monkeypatch):
    spec_kw, cfg_kw = TRACE_CASES[name]
    train, val = _data(rare_positives="empty" in name)
    spec_kw = {"alpha": 0.0, "criterion": "dp", "adv_hidden": 5, "cls_hidden": 5, **spec_kw}
    hidden = spec_kw.pop("hidden", ())
    spec = StackSpec(levels=(LevelSpec(in_dim=train.d, latent=4, hidden=hidden),
                             LevelSpec(in_dim=4, latent=2, hidden=hidden)),
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
from fairstack.model import CRITERIA, LevelSpec, StackSpec
from fairstack.training import TrainConfig, train_stack

ds = make_synthetic(n=240, seed=5, n_noise=4)
train, val = ds.subset(range(180)), ds.subset(range(180, 240))
for crit in CRITERIA:
    for freeze in (True, False):
        spec = StackSpec(levels=(LevelSpec(in_dim=train.d, latent=4),
                                 LevelSpec(in_dim=4, latent=2)), criterion=crit)
        stack, _ = train_stack(spec, train, TrainConfig(epochs=2, batch_size=32,
                                                        freeze_previous=freeze), val=val)
train_probe(stack, train.X, train.y, ProbeSpec(hidden=3, epochs=2))
train_logreg(train.X, train.y, epochs=20)
print(" ".join(sorted(m for m in sys.modules if m.startswith("fairstack"))))
"""


def test_training_builds_no_graph_per_batch():
    # production code never imports the graph engine: the CLI, the trainer
    # (frozen and fine-tuned, every criterion), the probe and logreg run
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
