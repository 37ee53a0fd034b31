import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from fairstack import autodiff as ad
from fairstack import cli, downstream, training
from fairstack.autodiff import Var, forward, level_loss
from fairstack.config import config_hash, load_config
from fairstack.data import make_synthetic
from fairstack.model import TrainedStack, build, stacked_spec
from fairstack.nn import Adam
from fairstack.training import (
    LOG_COLUMNS,
    DivergenceError,
    TrainConfig,
    _warm_start_adversary,
    train_stack,
)
from oracles import main_params


def _synthetic_split(n=256, seed=0, **kw):
    ds = make_synthetic(n=n, seed=seed, **kw)
    cut = int(n * 0.75)
    return ds.subset(range(cut)), ds.subset(range(cut, n))


# ---------------------------------------------------------------------------
# TrainConfig


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(adv_steps=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_adv=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(eopp_adv_label=2)


def test_config_adversary_lr_defaults_to_main():
    assert TrainConfig(lr=0.02).adversary_lr == 0.02
    assert TrainConfig(lr=0.02, lr_adv=0.5).adversary_lr == 0.5


# ---------------------------------------------------------------------------
# single-level behavior


def test_beta_zero_classifier_learns_adversary_unopposed():
    train, val = _synthetic_split()
    spec = stacked_spec(train.d, (4,), alpha=1.0, beta=0.0, gamma=1.0)
    cfg = TrainConfig(epochs=20, batch_size=32, seed=0)
    _, (records,) = train_stack(spec, train, cfg, val=val)
    assert len(records) == 20
    first, last = records[0], records[-1]
    assert last.loss_class < first.loss_class
    # nothing opposes the adversary at beta=0: group structure survives in z
    # (feature 0 carries s by construction), so it ends clearly above chance
    assert last.adv_acc > 0.75
    # classifier fairness columns are populated
    assert np.isfinite(last.val_dp)


def test_fixed_seed_reproduces_identical_log():
    train, val = _synthetic_split(n=128)
    spec = stacked_spec(train.d, (3,), beta=1.0)
    cfg = TrainConfig(epochs=3, batch_size=32, seed=5)
    outs = [repr(train_stack(spec, train, cfg, val=val)[1]) for _ in range(2)]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# stack training


def test_frozen_levels_stay_bit_identical():
    train, _ = _synthetic_split(n=128)
    spec = stacked_spec(train.d, (4, 2), beta=1.0)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=3, freeze_previous=True)

    stack, logs = train_stack(spec, train, cfg)
    assert [{r.level for r in records} for records in logs] == [{0}, {1}]

    # train only level 0, identically seeded: its weights must match the
    # full run's level-0 weights exactly (level-1 training never touched them)
    alone, _ = train_stack(stacked_spec(train.d, (4,), beta=1.0), train, cfg)
    for (w, b, _), (w0, b0, _) in zip(stack.levels[0], alone.levels[0]):
        assert np.array_equal(w, w0)
        assert np.array_equal(b, b0)


def test_fine_tuning_updates_earlier_encoders():
    train, _ = _synthetic_split(n=128)
    spec = stacked_spec(train.d, (4, 2), beta=1.0)
    frozen, _ = train_stack(spec, train, TrainConfig(
        epochs=2, batch_size=32, seed=3, freeze_previous=True))
    tuned, _ = train_stack(spec, train, TrainConfig(
        epochs=2, batch_size=32, seed=3, freeze_previous=False))
    w_frozen = frozen.levels[0][0][0]
    w_tuned = tuned.levels[0][0][0]
    assert w_frozen.shape == w_tuned.shape
    assert not np.array_equal(w_frozen, w_tuned)


def test_train_stack_deterministic_end_to_end():
    train, val = _synthetic_split(n=128)
    spec = stacked_spec(train.d, (4, 2), beta=1.0)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=11)
    a, logs_a = train_stack(spec, train, cfg, val=val)
    b, logs_b = train_stack(spec, train, cfg, val=val)
    for la, lb in zip(a.levels, b.levels):
        for (wa, ba, _), (wb, bb, _) in zip(la, lb):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
    assert repr(logs_a) == repr(logs_b)


def test_train_stack_provenance():
    train, _ = _synthetic_split(n=64)
    spec = stacked_spec(train.d, (3,), beta=0.5)
    cfg = TrainConfig(epochs=1, batch_size=32, seed=2)
    stack, _ = train_stack(spec, train, cfg)
    assert stack.provenance["seed"] == 2
    assert stack.provenance["spec"]["beta"] == 0.5
    assert stack.provenance["train_config"]["epochs"] == 1
    assert stack.provenance["dataset"]["n"] == 48


def test_vanilla_wrapper_single_level_only():
    train, _ = _synthetic_split(n=64)
    cfg = TrainConfig(epochs=1, batch_size=32)
    spec1 = stacked_spec(train.d, (3,))
    stack, logs = train_stack(spec1, train, cfg)
    assert stack.n_levels == 1 and stack.out_dim == 3
    assert len(logs) == 1


# ---------------------------------------------------------------------------
# min-max sign conventions


def test_main_step_ascends_adversary_loss_on_average():
    # with alpha=gamma=0 the main objective is exactly -beta*L_adv, so a
    # small descent step on it must increase L_adv measured at the frozen
    # adversary; averaged over 50 batches to wash out curvature effects
    rng = np.random.default_rng(0)
    ds = make_synthetic(n=50 * 32, seed=1)
    level = build(stacked_spec(ds.d, (3,)), seed=0)[0]
    opt = Adam(main_params(level), lr=1e-3)
    diffs = []
    for b in range(50):
        idx = np.arange(b * 32, (b + 1) * 32)
        xb, yb, sb = ds.X[idx], ds.y[idx], ds.s[idx]
        before = level_loss(level, xb, yb, sb, alpha=0.0, beta=1.0, gamma=0.0)
        ad.zero_grads(main_params(level) + level.adversary.params())
        ad.backward(ad.scale(before.adv, -1.0))
        opt.step()
        after = level_loss(level, xb, yb, sb, alpha=0.0, beta=1.0, gamma=0.0)
        diffs.append(after.adv.item() - before.adv.item())
    assert np.mean(diffs) > 0.0


def test_adversary_step_descends_its_loss_on_average():
    ds = make_synthetic(n=50 * 32, seed=2)
    level = build(stacked_spec(ds.d, (3,)), seed=0)[0]
    opt = Adam(level.adversary.params(), lr=1e-3)
    diffs = []
    for b in range(50):
        idx = np.arange(b * 32, (b + 1) * 32)
        xb, sb = ds.X[idx], ds.s[idx]
        z = level.encoder.forward_value(xb)
        target = sb.reshape(-1, 1).astype(float)

        def adv_loss():
            return ad.bce_loss(forward(level.adversary, Var(z)), target)

        before = adv_loss()
        ad.zero_grads(level.adversary.params())
        ad.backward(before)
        opt.step()
        diffs.append(adv_loss().item() - before.item())
    assert np.mean(diffs) < 0.0


# ---------------------------------------------------------------------------
# eopp wiring


def test_eopp_rows_outside_subset_get_zero_gradient():
    ds = make_synthetic(n=64, seed=3)
    level = build(stacked_spec(ds.d, (3,), criterion="eopp"), seed=0)[0]
    z_prev = ad.parameter(ds.X)
    parts = level_loss(level, z_prev, ds.y, ds.s, alpha=1.0, beta=1.0,
                       gamma=1.0, eopp_label=0)
    ad.backward(parts.adv)
    outside = ds.y != 0
    assert outside.any() and (~outside).any()
    np.testing.assert_array_equal(z_prev.grad[outside],
                                  np.zeros_like(z_prev.grad[outside]))
    assert np.abs(z_prev.grad[~outside]).max() > 0


# ---------------------------------------------------------------------------
# divergence guard


def test_divergence_error_names_location():
    train, _ = _synthetic_split(n=64)
    spec = stacked_spec(train.d, (3,), alpha=1.0)
    # Adam steps are lr-sized regardless of gradient scale, so one enormous
    # step pushes the next forward pass past float range
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0, lr=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            train_stack(spec, train, cfg)
    msg = str(exc.value)
    assert "level 0" in msg and "epoch" in msg and "batch" in msg


def _poison_step(monkeypatch, module, at: int) -> None:
    """Give call number ``at`` (from 0) of ``module.bce_step`` a nan in its
    input, so that step's gradient is nan while every loss read so far is
    finite."""
    real, calls = module.bce_step, itertools.count()

    def poisoned(net, opt, x, target):
        if next(calls) == at:
            x = x.copy()
            x[0, 0] = np.nan
        return real(net, opt, x, target)

    monkeypatch.setattr(module, "bce_step", poisoned)


@pytest.mark.parametrize("fit", ["adversary", "probe", "logreg"])
def test_nan_in_a_middle_gradient_only_step_raises_divergence_error(fit, monkeypatch):
    # these steps compute no loss: Adam's finiteness check catches the nan
    train, _ = _synthetic_split(n=128)
    if fit == "adversary":
        _poison_step(monkeypatch, training, at=5)      # of 6 batches x 2 epochs
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
        run = lambda: train_stack(stacked_spec(train.d, (3,)), train, cfg)
    elif fit == "probe":
        _poison_step(monkeypatch, downstream, at=5)    # of 2 batches x 4 epochs
        run = lambda: downstream.train_probe(TrainedStack.identity(train.d), train.X, train.y,
                                             downstream.ProbeSpec(epochs=4))
    else:
        _poison_step(monkeypatch, downstream, at=20)
        run = lambda: downstream.train_logreg(train.X, train.y, epochs=50)
    with pytest.raises(DivergenceError, match="non-finite") as exc:
        run()
    assert "Adam step" in str(exc.value)
    if fit == "adversary":
        assert "level 0, epoch 0, batch 5" in str(exc.value)


# ---------------------------------------------------------------------------
# adversary warm start


def test_warm_start_copies_matching_layers_only():
    spec = stacked_spec(10, (4, 2), adv_hidden=6)
    levels = build(spec, seed=0)
    levels[0].adversary.layers[1].weight.value[...] = 7.0
    copied = _warm_start_adversary(levels[1], levels[0])
    # first layers differ in width (4 vs 2 inputs); hidden->output matches
    assert copied == 1
    assert np.all(levels[1].adversary.layers[1].weight.value == 7.0)
    assert levels[1].adversary.layers[0].weight.value.shape == (2, 6)


def test_warm_start_flag_changes_level2_adversary_path():
    train, _ = _synthetic_split(n=128)
    spec = stacked_spec(train.d, (4, 2), beta=1.0, adv_hidden=6)
    cold, logs_cold = train_stack(spec, train, TrainConfig(
        epochs=2, batch_size=32, seed=1, adversary_warm_start=False))
    warm, logs_warm = train_stack(spec, train, TrainConfig(
        epochs=2, batch_size=32, seed=1, adversary_warm_start=True))
    # level 0 is identical; the level-1 game differs through the adversary
    assert np.array_equal(cold.levels[0][0][0], warm.levels[0][0][0])
    assert logs_cold[1][-1].loss_adv != logs_warm[1][-1].loss_adv


# ---------------------------------------------------------------------------
# log serialization


def test_log_csv_layout(tmp_path, monkeypatch, capsys):
    # the train-level0.csv of a real fit, then of one whose train_stack gets
    # no val set: the val columns are numbers, then nan
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"id": "synthetic", "n": 120, "n_noise": 1},
        "stack": {"levels": [{"latent": 3}], "adv_hidden": 4, "cls_hidden": 4},
        "train": {"epochs": 2, "batch": 32}, "probe": {"epochs": 2},
        "out_dir": str(tmp_path / "runs")}))
    val_columns = ("adv_acc", "val_dp", "val_eo", "val_eopp")
    for with_val in (True, False):
        if not with_val:
            monkeypatch.setattr(cli, "train_stack",
                                lambda spec, train, cfg, val: train_stack(spec, train, cfg))
        assert cli.main(["fit", "--config", str(path)]) == 0
        run = Path(capsys.readouterr().out.rsplit(" in ", 1)[1].strip())
        lines = (run / "train-level0.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={config_hash(load_config(path))} seed=0"
        assert lines[1] == ("level,epoch,loss_rec,loss_adv,loss_class,adv_acc,val_dp,"
                            "val_eo,val_eopp") == ",".join(LOG_COLUMNS)
        rows = [dict(zip(LOG_COLUMNS, line.split(","))) for line in lines[2:]]
        assert [(r["level"], r["epoch"]) for r in rows] == [("0", "0"), ("0", "1")]
        values = np.array([float(r[c]) for r in rows for c in val_columns])
        assert np.isfinite(values).all() if with_val else np.isnan(values).all()
