"""The deliverable gate, end to end.

Each test here states one externally checkable promise of the package:
gradient correctness against central finite differences, metric equality
against an exhaustive counting oracle, optimizer equality against an
independent Adam trace, demonstrable removal of the sensitive signal on
constructed data, the benchmark orderings on the UCI datasets (skipped with
an explanation when the data files are absent), bit-level reproducibility
of the CLI, and the adversary wiring rules.

Everything runs from public entry points; tolerances are stated inline.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from fairstack.autodiff import (Var, add, backward, bce_loss, concat_cols,
                                leaky_relu, level_loss, matmul, mse_loss, parameter,
                                relu, scale, sigmoid, sum_all, take_rows, zero_grads)
from fairstack.cli import main
from fairstack.data import make_synthetic, standardize, train_val_test_split
from fairstack.downstream import ProbeSpec, train_probe
from fairstack.metrics import PredictionBatch, UndefinedMetricError, evaluate
from fairstack.model import LevelSpec, StackSpec, build, encode, level_grads, stacked_spec
from fairstack.nn import Adam
from fairstack.training import TrainConfig, train_stack
from oracles import (adam_reference_trace, all_params, enumerate_count_batches,
                     finite_difference, grad_close, main_params, naive_metrics)


# ---------------------------------------------------------------------------
# 1. every differentiable operation, and the composed level objective,
#    against central finite differences (h=1e-5, relative error < 1e-4)


def _fd_case(build_loss, arrays) -> int:
    """Check analytic against numeric gradients for each input; returns the
    number of gradients checked."""
    params = [parameter(a.copy()) for a in arrays]
    backward(build_loss(*params))
    for k, p in enumerate(params):
        def f(x, k=k):
            vals = [a.copy() for a in arrays]
            vals[k] = x
            return build_loss(*[Var(v) for v in vals]).value.item()
        numeric = finite_difference(f, arrays[k])
        assert grad_close(p.grad, numeric, rtol=1e-4), (
            f"gradient mismatch for input {k}:\n{p.grad}\nvs numeric\n{numeric}")
    return len(params)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(20240817)
    cases = 0
    for _ in range(12):
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 2))
        cases += _fd_case(lambda x, w: sum_all(sigmoid(matmul(x, w))), [a, b])

        x = rng.uniform(-1, 1, (3, 4))
        bias = rng.uniform(-1, 1, (1, 4))
        cases += _fd_case(lambda u, v: sum_all(sigmoid(add(u, v))), [x, bias])

        # keep piecewise-linear inputs away from the kink at zero so the
        # numeric slope is clean at h=1e-5
        r = rng.uniform(0.1, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
        t = rng.uniform(-1, 1, (4, 3))
        cases += _fd_case(lambda u: mse_loss(relu(u), t), [r])
        cases += _fd_case(lambda u: mse_loss(leaky_relu(u), t), [r])

        z = rng.uniform(-2, 2, (5, 2))
        cases += _fd_case(lambda u: sum_all(sigmoid(u)), [z])

        logits = rng.uniform(-2, 2, (6, 1))
        targ = rng.integers(0, 2, (6, 1)).astype(float)
        cases += _fd_case(lambda u: bce_loss(sigmoid(u), targ), [logits])

        p = rng.uniform(-1, 1, (3, 5))
        q = rng.uniform(-1, 1, (3, 5))
        cases += _fd_case(lambda u: mse_loss(u, q), [p])
        cases += _fd_case(lambda u: scale(mse_loss(u, q, root=True), 1.7), [p])

        c1 = rng.uniform(-1, 1, (4, 2))
        c2 = rng.uniform(-1, 1, (4, 3))
        ct = rng.uniform(-1, 1, (4, 5))
        cases += _fd_case(lambda u, v: mse_loss(concat_cols(u, v), ct), [c1, c2])

        m = rng.uniform(-1, 1, (5, 3))
        idx = rng.integers(0, 5, 7)  # repeats force scatter-add in the pullback
        cases += _fd_case(lambda u: sum_all(sigmoid(take_rows(u, idx))), [m])

    # the signed level objective the trainer descends, alpha*rec + gamma*cls
    # - beta*adv, through encoder, decoder, classifier and adversary at once,
    # for every criterion
    for seed, crit in enumerate(("dp", "eo", "eopp")):
        spec = StackSpec(levels=(LevelSpec(in_dim=4, latent=2, hidden=(3,)),),
                         alpha=0.7, beta=1.3, gamma=0.9, criterion=crit,
                         adv_hidden=3, cls_hidden=3)
        level = build(spec, seed=seed)[0]
        X = rng.uniform(-1, 1, (6, 4))
        y = np.array([0, 1, 0, 1, 1, 0])
        s = np.array([1, 0, 0, 1, 0, 1])

        def objective():
            return level_loss(level, X, y, s, alpha=0.7, beta=1.3,
                              gamma=0.9).objective

        zero_grads(all_params(level))
        backward(objective())
        for p in all_params(level):
            def f(v, p=p):
                keep = p.value.copy()
                p.value[...] = v
                out = objective().value.item()
                p.value[...] = keep
                return out
            numeric = finite_difference(f, p.value)
            assert grad_close(p.grad, numeric, rtol=1e-4), (
                f"level loss ({crit}) gradient mismatch for a "
                f"{p.value.shape} parameter")
            cases += 1

    # the explicit kernel the trainer runs (model.level_grads) against central
    # differences of the objective it reports; the adversary is frozen in the
    # main step. The reconstruction target is the level's input held fixed,
    # so the fine-tuning case (gradients into a prefix encoder) runs with
    # alpha = 0.
    for seed, crit in enumerate(("dp", "eo", "eopp")):
        spec = StackSpec(levels=(LevelSpec(in_dim=5, latent=4, hidden=(3,)),
                                 LevelSpec(in_dim=4, latent=2, hidden=(3,))),
                         criterion=crit, adv_hidden=3, cls_hidden=3)
        prefix, level = build(spec, seed=seed)
        X = rng.uniform(-1, 1, (6, 5))
        y = np.array([0, 1, 0, 1, 1, 0])
        s = np.array([1, 0, 0, 1, 0, 1])
        for alpha, before, trained in ((0.7, [], main_params(level)),
                                       (0.0, [prefix], prefix.encoder.params())):
            z = encode([prefix], X) if not before else X

            def kernel_objective(alpha=alpha, before=before, z=z):
                rec, cls, adv = level_grads(level, z, y, s, alpha=alpha, beta=1.3,
                                            gamma=0.9, root_mse=crit == "eo",
                                            prefix=before)
                return alpha * rec + 0.9 * cls - 1.3 * adv

            zero_grads(all_params(prefix) + all_params(level))
            kernel_objective()
            grads = [p.grad.copy() for p in trained]
            assert all(not p.grad.any() for p in level.adv_params())
            for p, grad in zip(trained, grads):
                def f(v, p=p):
                    keep = p.value.copy()
                    p.value[...] = v
                    out = kernel_objective()
                    p.value[...] = keep
                    return out
                numeric = finite_difference(f, p.value)
                assert grad_close(grad, numeric, rtol=1e-4), (
                    f"kernel ({crit}, alpha={alpha}) gradient mismatch for a "
                    f"{p.value.shape} parameter")
                cases += 1

    assert cases >= 100, f"only {cases} gradient checks ran"


# ---------------------------------------------------------------------------
# 2. metrics against a loop-and-count oracle, exhaustively over every
#    composition of the 8 (prediction, label, group) cells up to 12 samples


def test_metrics_match_exhaustive_counting_oracle():
    checked = undefined_groups = 0
    for y_pred, y_true, s in enumerate_count_batches(12):
        want = naive_metrics(y_pred, y_true, s)
        try:
            got = evaluate(PredictionBatch(np.array(y_pred), np.array(y_true),
                                           np.array(s))).to_json()
        except UndefinedMetricError:
            # a whole group is absent: even the parity gap has no value
            assert want["delta_dp"] is None
            undefined_groups += 1
            continue
        assert want["delta_dp"] is not None
        for key in ("accuracy", "delta_dp", "delta_eo", "delta_eopp"):
            a, b = got[key], want[key]
            assert (a is None) == (b is None), (key, y_pred, y_true, s)
            if a is not None:
                assert abs(a - b) < 1e-12, (key, a, b, y_pred, y_true, s)
        checked += 1
    assert checked > 100_000
    assert undefined_groups > 1_000


# ---------------------------------------------------------------------------
# 3. ten Adam steps on scalar quadratics against an independent trace


def test_adam_matches_independent_reference_trace():
    rng = np.random.default_rng(7)
    quadratics = [(1.0, 0.0, 1.0)]  # the classic: minimize w^2 from w=1
    quadratics += [(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2, 2)),
                    float(rng.uniform(-2, 2))) for _ in range(9)]
    for a, c, w0 in quadratics:
        w = parameter([[w0]])
        opt = Adam([w], lr=0.01)
        trace = [w0]
        for _ in range(10):
            zero_grads([w])
            backward(scale(mse_loss(w, [[c]]), a))  # a * (w - c)^2
            opt.step()
            trace.append(float(w.value[0, 0]))
        ref = adam_reference_trace(lambda x: 2.0 * a * (x - c), w0, steps=10,
                                   lr=0.01)
        np.testing.assert_allclose(trace, ref, rtol=0.0, atol=1e-12)

    # one optimizer over parameters of several shapes, as the trainer builds
    # it: every element must follow its own scalar trace on a * (w - c)^2
    shapes = [(1, 1), (3, 2), (1, 4), (5, 1)]
    curv = [rng.uniform(0.2, 3.0, shape) for shape in shapes]
    centre = [rng.uniform(-2, 2, shape) for shape in shapes]
    start = [rng.uniform(-2, 2, shape) for shape in shapes]
    params = [parameter(w.copy()) for w in start]
    opt = Adam(params, lr=0.01)
    traces = [[w.copy()] for w in start]
    for _ in range(10):
        opt.zero_grad()
        for p, ak, ck in zip(params, curv, centre):
            p.grad += 2.0 * ak * (p.value - ck)
        opt.step()
        for trace, p in zip(traces, params):
            trace.append(p.value.copy())
    for k, shape in enumerate(shapes):
        for i, j in np.ndindex(shape):
            a, c = curv[k][i, j], centre[k][i, j]
            ref = adam_reference_trace(lambda x: 2.0 * a * (x - c), start[k][i, j],
                                       steps=10, lr=0.01)
            got = [float(w[i, j]) for w in traces[k]]
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# 4. adversarial training strips a planted sensitive signal while the label
#    signal survives (label independent of the planted feature by design)


def test_adversarial_training_removes_sensitive_signal():
    probe_on_s, probe_on_y, majority = [], [], []
    for seed in (0, 1, 2):
        ds = make_synthetic(n=2000, seed=seed, n_noise=3)
        plan = train_val_test_split(ds.n, seed=seed, val_frac=0.25)
        std = standardize(ds, plan.train)
        train_ds, val_ds = std.subset(plan.train), std.subset(plan.val)

        spec = stacked_spec(ds.d, (4,), alpha=0.0, beta=5.0, gamma=1.0,
                            criterion="dp", adv_hidden=8, cls_hidden=8)
        stack, _ = train_stack(spec, train_ds,
                               TrainConfig(epochs=40, batch_size=64, seed=seed))

        pspec = ProbeSpec(hidden=8, epochs=60, seed=seed)
        s_probe = train_probe(stack, train_ds.X, train_ds.s, pspec)
        y_probe = train_probe(stack, train_ds.X, train_ds.y, pspec)
        probe_on_s.append(float(np.mean(s_probe.predict(val_ds.X) == val_ds.s)))
        probe_on_y.append(float(np.mean(y_probe.predict(val_ds.X) == val_ds.y)))
        majority.append(float(max(val_ds.s.mean(), 1.0 - val_ds.s.mean())))

    # a fresh adversary can do no better than guessing the majority group...
    assert abs(np.mean(probe_on_s) - np.mean(majority)) < 0.1
    # ...while the label stays predictable from the same representation
    assert np.mean(probe_on_y) > 0.8


# ---------------------------------------------------------------------------
# 5. benchmark ordering: for every beta, mean probe parity gap of the stacked
#    model <= single-level baseline <= raw-feature baseline (+0.02 slack)


def _sweep_ordering_config(tmp_path: Path, dataset: dict, levels, epochs: int,
                           subsample: int | None = None) -> Path:
    cfg = {
        "dataset": dict(dataset, **({"subsample": subsample} if subsample else {})),
        "stack": {"levels": levels, "adv_hidden": 20, "cls_hidden": 20},
        "train": {"epochs": epochs, "batch": 64, "lr": 0.01},
        "loss": {"alpha": 0.0, "beta": 1.0, "gamma": 1.0},
        "criterion": "dp",
        "sweep": {"betas": [1.0, 2.0, 3.0, 5.0, 15.0]},
        "seeds": [0, 1, 2],
        "out_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def _check_sweep_ordering(tmp_path: Path, capsys) -> None:
    assert main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 0
    out = capsys.readouterr().out
    run = Path(out.strip().splitlines()[-1].rsplit("-> ", 1)[1])

    import csv
    import io

    def rows_of(name):
        lines = [l for l in (run / name).read_text().splitlines()
                 if not l.startswith("#")]
        return list(csv.DictReader(io.StringIO("\n".join(lines))))

    means = {(r["beta"], r["variant"]): float(r["delta_dp"])
             for r in rows_of("sweep_means.csv")}
    unfair = float(rows_of("baseline_means.csv")[0]["delta_dp"])
    for beta in ("1.0", "2.0", "3.0", "5.0", "15.0"):
        stacked_dp = means[(beta, "stacked")]
        vanilla_dp = means[(beta, "vanilla")]
        assert stacked_dp <= vanilla_dp, (beta, stacked_dp, vanilla_dp)
        assert max(stacked_dp, vanilla_dp) <= unfair + 0.02, (
            beta, stacked_dp, vanilla_dp, unfair)


def test_beta_sweep_preserves_fairness_ordering_adult(adult_dir, tmp_path,
                                                      capsys):
    # runs only when the Adult files are present; row count and epochs are
    # reduced to keep 33 trainings tractable on one CPU
    _sweep_ordering_config(
        tmp_path,
        {"id": "adult", "path": str(adult_dir)},
        levels=[{"latent": 20}, {"latent": 8}],
        epochs=40, subsample=2000)
    _check_sweep_ordering(tmp_path, capsys)


def test_beta_sweep_preserves_fairness_ordering_german(german_file, tmp_path,
                                                       capsys):
    _sweep_ordering_config(
        tmp_path,
        {"id": "german", "path": str(german_file)},
        levels=[{"latent": 15}, {"latent": 8}],
        epochs=150)
    _check_sweep_ordering(tmp_path, capsys)


# ---------------------------------------------------------------------------
# 6. cross-validated parity-gap bands for logistic regression and random
#    forest on raw vs stacked features (wide bands; preprocessing differs)


def _table1_cells(tmp_path: Path, capsys, dataset: dict, levels, epochs: int,
                  subsample: int | None = None) -> dict:
    cfg = {
        "dataset": dict(dataset, **({"subsample": subsample} if subsample else {})),
        "stack": {"levels": levels, "adv_hidden": 20, "cls_hidden": 20},
        "train": {"epochs": epochs, "batch": 64, "lr": 0.01},
        "criterion": "dp",
        "seeds": [0],
        "cv_folds": 5,
        "forest": {"n_trees": 50, "max_depth": 10},
        "out_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "table1.json"
    path.write_text(json.dumps(cfg))
    assert main(["table1", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    run = Path(out.strip().splitlines()[-1].rsplit(" in ", 1)[1])
    return json.loads((run / "table1.json").read_text())["cells"]


def test_parity_gap_bands_adult(adult_dir, tmp_path, capsys):
    cells = _table1_cells(tmp_path, capsys,
                          {"id": "adult", "path": str(adult_dir)},
                          levels=[{"latent": 20}, {"latent": 8}],
                          epochs=60, subsample=6000)
    for kind in ("logreg", "forest"):
        assert cells[kind]["unfair"]["delta_dp_mean"] >= 0.40, kind
        assert cells[kind]["stacked"]["delta_dp_mean"] <= 0.35, kind


def test_parity_gap_bands_german(german_file, tmp_path, capsys):
    cells = _table1_cells(tmp_path, capsys,
                          {"id": "german", "path": str(german_file)},
                          levels=[{"latent": 15}, {"latent": 8}],
                          epochs=150)
    assert cells["logreg"]["unfair"]["delta_dp_mean"] >= 0.20
    assert cells["logreg"]["stacked"]["delta_dp_mean"] <= 0.20
    assert cells["forest"]["unfair"]["delta_dp_mean"] >= 0.15
    assert cells["forest"]["stacked"]["delta_dp_mean"] <= 0.20


# ---------------------------------------------------------------------------
# 7. refitting with an identical config and seed is bit-identical


def test_repeated_fit_is_bit_identical(tmp_path, capsys):
    cfg = {
        "dataset": {"id": "synthetic", "n": 200, "n_noise": 2},
        "stack": {"levels": [{"hidden": [6], "latent": 3}],
                  "adv_hidden": 4, "cls_hidden": 4},
        "train": {"epochs": 3, "batch": 32},
        "seeds": [5],
        "probe": {"epochs": 3},
        "out_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    runs = []
    for _ in range(2):
        assert main(["fit", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        runs.append(Path(out.strip().splitlines()[-1].rsplit(" in ", 1)[1]))

    a, b = runs
    assert a != b
    assert (a / "model.fstk").read_bytes() == (b / "model.fstk").read_bytes()
    assert (a / "train-level0.csv").read_text() == \
           (b / "train-level0.csv").read_text()
    ra = json.loads((a / "run.json").read_text())
    rb = json.loads((b / "run.json").read_text())
    assert ra["probe_report"] == rb["probe_report"]
    assert ra["config_hash"] == rb["config_hash"]


# ---------------------------------------------------------------------------
# 8. adversary wiring rules


def test_adversary_wiring_invariants():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 6))
    s = np.array([0, 1] * 6)
    y = np.array([0, 0, 1, 1] * 3)

    # structural: only the eo adversary gets the extra label column
    for crit, extra in (("dp", 0), ("eo", 1), ("eopp", 0)):
        spec = stacked_spec(6, (3,), criterion=crit)
        assert build(spec, seed=1)[0].adversary.in_dim == 3 + extra

    # behavioral: flipping every label moves the eo adversary loss and leaves
    # the dp adversary loss untouched
    for crit, should_differ in (("eo", True), ("dp", False)):
        level = build(stacked_spec(6, (3,), criterion=crit), seed=2)[0]
        l_y = level_loss(level, X, y, s, alpha=0.0, beta=1.0, gamma=0.0)
        l_flip = level_loss(level, X, 1 - y, s, alpha=0.0, beta=1.0, gamma=0.0)
        differs = l_y.adv.value.item() != l_flip.adv.value.item()
        assert differs == should_differ, crit

    # eopp: adversary gradients vanish exactly on rows outside y == 0
    level = build(stacked_spec(6, (3,), criterion="eopp"), seed=4)[0]
    z_prev = parameter(X)
    parts = level_loss(level, z_prev, y, s, alpha=0.0, beta=1.0, gamma=0.0,
                       eopp_label=0)
    assert parts.n_adv == int((y == 0).sum())
    backward(parts.adv)
    outside = z_prev.grad[y != 0]
    inside = z_prev.grad[y == 0]
    assert np.all(outside == 0.0)
    assert np.any(inside != 0.0)

    # a trained encoder is bit-identical whether training stopped after its
    # level or continued to a later level (frozen by default)...
    ds = make_synthetic(n=120, seed=0, n_noise=1)
    cfg = TrainConfig(epochs=3, batch_size=32, seed=9)
    deep, _ = train_stack(stacked_spec(ds.d, (3, 2)), ds, cfg)
    shallow, _ = train_stack(stacked_spec(ds.d, (3,)), ds, cfg)
    for (w_d, b_d, act_d), (w_s, b_s, act_s) in zip(deep.levels[0],
                                                    shallow.levels[0]):
        assert w_d.tobytes() == w_s.tobytes()
        assert b_d.tobytes() == b_s.tobytes()
        assert act_d == act_s

    # ...and probe training never writes to the encoder it reads through
    before = [(w.copy(), b.copy()) for w, b, _ in deep.levels[0] + deep.levels[1]]
    train_probe(deep, ds.X, ds.y, ProbeSpec(hidden=4, epochs=5, seed=0))
    after = [(w, b) for w, b, _ in deep.levels[0] + deep.levels[1]]
    for (w0, b0), (w1, b1) in zip(before, after):
        assert w0.tobytes() == w1.tobytes()
        assert b0.tobytes() == b1.tobytes()
