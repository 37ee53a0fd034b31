import dataclasses
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
from fairstack.metrics import evaluate
from fairstack.model import TrainedStack, build, stacked_spec
from fairstack.nn import Adam, DimensionError
from fairstack.training import (
    LOG_COLUMNS,
    DivergenceError,
    TrainConfig,
    train_stack,
)
from oracles import main_params, naive_group_stats


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
        TrainConfig(lr=0.0)


# ---------------------------------------------------------------------------
# val scoring


def test_bad_eo_mode_raises_instead_of_logging_nan():
    train, val = _synthetic_split(n=64)
    with pytest.raises(ValueError, match="eo_mode must be one of"):
        train_stack(stacked_spec(train.d, (4,)), train, TrainConfig(epochs=2), val=val,
                    eo_mode="Max")


def test_val_split_with_an_empty_group_logs_nan_gaps():
    train, val = _synthetic_split(n=64)
    val = dataclasses.replace(val, s=np.zeros_like(val.s))  # no row has s == 1
    _, (records,) = train_stack(stacked_spec(train.d, (4,)), train, TrainConfig(epochs=2),
                                val=val)
    assert len(records) == 2
    for r in records:
        assert np.isnan([r.val_dp, r.val_eo, r.val_eopp]).all()
        assert np.isfinite(r.adv_acc)


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
    cfg = TrainConfig(epochs=2, batch_size=32, seed=3)

    stack, logs = train_stack(spec, train, cfg)
    assert [{r.level for r in records} for records in logs] == [{0}, {1}]

    # train only level 0, identically seeded: its weights must match the
    # full run's level-0 weights exactly (level-1 training never touched them)
    alone, _ = train_stack(stacked_spec(train.d, (4,), beta=1.0), train, cfg)
    for (w, b, _), (w0, b0, _) in zip(stack.levels[0], alone.levels[0]):
        assert np.array_equal(w, w0)
        assert np.array_equal(b, b0)


def test_train_stack_rejects_data_of_another_width():
    train, val = _synthetic_split(n=64)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(DimensionError, match=f"expected input width {train.d + 1}, got {train.d}"):
        train_stack(stacked_spec(train.d + 1, (3,)), train, cfg)
    narrow = dataclasses.replace(val, X=val.X[:, 1:])
    with pytest.raises(DimensionError, match=f"got {train.d - 1}"):
        train_stack(stacked_spec(train.d, (3,)), train, cfg, val=narrow)


def _nan_first(X):
    X = X.copy()
    X[0, 0] = np.nan
    return X


@pytest.mark.parametrize("train_of,val_of,match", [
    (lambda ds: ds.subset([]), None, "zero rows"),
    (lambda ds: dataclasses.replace(ds, X=_nan_first(ds.X)), None, "finite"),
    (lambda ds: dataclasses.replace(ds, y=2 * ds.y), None, "labels must contain only 0/1 values"),
    (lambda ds: dataclasses.replace(ds, s=2 * ds.s), None, "sensitive column s"),
    (lambda ds: ds, lambda ds: ds.subset([]), "zero rows"),
], ids=["no-rows", "nan-feature", "y-in-0-2", "s-in-0-2", "empty-val"])
def test_train_stack_checks_its_rows_before_any_step(train_of, val_of, match, monkeypatch):
    train, val = _synthetic_split(n=64)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "level_grads", no_step)
    with pytest.raises(ValueError, match=match):
        train_stack(stacked_spec(train.d, (3,)), train_of(train), TrainConfig(epochs=1),
                    val=None if val_of is None else val_of(val))


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
    assert set(stack.provenance) == {"spec", "spec_hash", "train_config", "dataset"}
    assert stack.provenance["spec"]["in_dim"] == train.d
    assert stack.provenance["spec"]["levels"] == ((3,),)
    assert stack.provenance["train_config"]["seed"] == 2
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
    parts = level_loss(level, z_prev, ds.y, ds.s, alpha=1.0, beta=1.0, gamma=1.0)
    ad.backward(parts.adv)
    outside = ds.y != 1
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


@pytest.mark.parametrize("weight", ["beta", "gamma"])
def test_a_loss_weight_that_overflows_adam_raises_divergence_error(weight):
    # the gradient is finite, but g * g overflows in Adam's second moment: an
    # infinite moment would make every update 0 and leave the encoder frozen
    train, _ = _synthetic_split(n=64)
    spec = stacked_spec(train.d, (3,), **{weight: 1e300})
    with pytest.raises(DivergenceError, match="level 0, epoch 0, batch 0: overflow"):
        train_stack(spec, train, TrainConfig(epochs=1, batch_size=16, seed=0))


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


def _poison_sigmoid(monkeypatch, at: int) -> None:
    """Give call number ``at`` (from 0) of ``downstream.sigmoid`` a nan in its
    output, so that Newton step's system is nan while every step before it
    was finite."""
    real, calls = downstream.sigmoid, itertools.count()

    def poisoned(z):
        p = real(z)
        if next(calls) == at:
            p[0] = np.nan
        return p

    monkeypatch.setattr(downstream, "sigmoid", poisoned)


@pytest.mark.parametrize("fit", ["adversary", "probe", "logreg"])
def test_nan_in_a_middle_gradient_only_step_raises_divergence_error(fit, monkeypatch):
    # these steps compute no loss: Adam's finiteness check catches the nan,
    # and logreg's check of the Newton decrement
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
        _poison_sigmoid(monkeypatch, at=5)             # of 14 Newton steps
        run = lambda: downstream.train_logreg(train.X, train.y)
    with pytest.raises(DivergenceError, match="non-finite") as exc:
        run()
    if fit == "logreg":
        assert "Newton decrement at step 5" in str(exc.value)
    else:
        assert "Adam step" in str(exc.value)
    if fit == "adversary":
        assert "level 0, epoch 0, batch 5" in str(exc.value)


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
            monkeypatch.setattr(cli, "train_stack", lambda spec, train, cfg, val, eo_mode:
                                train_stack(spec, train, cfg))
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


def test_log_val_eo_follows_the_config_eo_mode(tmp_path, monkeypatch, capsys):
    # under eo_mode max, each epoch's val_eo is max(eopp gap, FPR gap) of that
    # epoch's val predictions, as the probe report scores it, not their sum
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"id": "synthetic", "n": 600, "n_noise": 3},
        "stack": {"levels": [{"latent": 3}], "adv_hidden": 4, "cls_hidden": 4},
        "train": {"epochs": 4, "batch": 64}, "probe": {"epochs": 2},
        "criterion": "eo", "eo_mode": "max", "out_dir": str(tmp_path / "runs")}))
    seen = []

    def recording(batch, eo_mode="sum"):
        seen.append(batch)
        return evaluate(batch, eo_mode=eo_mode)

    monkeypatch.setattr(training, "evaluate", recording)
    assert cli.main(["fit", "--config", str(path)]) == 0
    run = Path(capsys.readouterr().out.rsplit(" in ", 1)[1].strip())
    lines = (run / "train-level0.csv").read_text().splitlines()[2:]
    rows = [dict(zip(LOG_COLUMNS, line.split(","))) for line in lines]
    assert len(rows) == len(seen) == 4
    both_gaps = 0
    for row, batch in zip(rows, seen):
        stats = naive_group_stats(batch.y_pred, batch.y_true, batch.s)
        eopp = abs(stats[0]["tpr"] - stats[1]["tpr"])
        fpr = abs(stats[0]["fpr"] - stats[1]["fpr"])
        both_gaps += eopp > 0 and fpr > 0
        assert float(row["val_eopp"]) == pytest.approx(eopp, abs=1e-12)
        assert float(row["val_eo"]) == pytest.approx(max(eopp, fpr), abs=1e-12)
    assert both_gaps  # where the sum and max forms differ
