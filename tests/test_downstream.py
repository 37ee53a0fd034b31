import contextlib
import signal
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstack import cli, downstream
from fairstack.data import make_folds, make_synthetic, standardize
from fairstack.downstream import (
    CVResult,
    MODEL_KINDS,
    ProbeSpec,
    aggregate_metrics,
    cross_validate,
    train_logreg,
    train_probe,
)
from fairstack.data import _fit_input
from fairstack.forest import (MAX_ROWS, ForestSpec, RandomForest, Tree, _grow, _ranks,
                              _weighted_gini, train_forest)
from fairstack.metrics import FairnessReport, threshold_predictions
from fairstack.model import TrainedStack, build, stacked_spec
from fairstack.nn import MLP, Param, dense_forward, sigmoid
from fairstack.training import DivergenceError
from oracles import (adam_logreg, brute_force_best_split, reference_forest_predict,
                     reference_forest_trees, reference_tree, reference_weighted_gini)


def _separable_toy(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


def _stack_bytes(stack: TrainedStack) -> list[bytes]:
    return [arr.tobytes() for layers in stack.levels for (w, b, _) in layers
            for arr in (w, b)]


# ---------------------------------------------------------------------------
# probe


def test_probe_never_touches_encoder_weights():
    levels = build(stacked_spec(6, (3,)), seed=0)
    stack = TrainedStack.from_levels(levels)
    before = _stack_bytes(stack)
    ds = make_synthetic(n=200, seed=1)
    train_probe(stack, ds.X, ds.y, ProbeSpec(epochs=5, hidden=4))
    assert _stack_bytes(stack) == before


def _layer_bytes(layers) -> list:
    return [(W.tobytes(), b.tobytes(), act) for W, b, act in layers]


def _layers(model: TrainedStack) -> list:
    """A fitted model's (W, b, activation) triples, its levels flattened."""
    return [layer for layers in model.levels for layer in layers]


def test_probe_predictor_is_its_stack_layers_then_its_head():
    ds = make_synthetic(n=150, seed=5)
    stack = TrainedStack.from_levels(build(stacked_spec(ds.d, (4, 2)), seed=0))
    spec = ProbeSpec(epochs=3, hidden=3, seed=1)
    probe = train_probe(stack, ds.X, ds.y, spec)
    encoder = [layer for layers in stack.levels for layer in layers]
    head = _layers(probe)[len(encoder):]
    assert _layer_bytes(_layers(probe)[:len(encoder)]) == _layer_bytes(encoder)
    # the head is the probe fitted on the codes themselves
    z = stack.encode(ds.X)
    assert _layer_bytes(head) == _layer_bytes(
        _layers(train_probe(TrainedStack.identity(z.shape[1]), z, ds.y, spec)))
    assert probe.encode(ds.X)[:, 0].tobytes() == dense_forward(head, z).reshape(-1).tobytes()


def test_probe_and_logreg_predict_threshold_their_flat_layers():
    # each prediction is the one dense_forward over the layers, thresholded
    ds = make_synthetic(n=150, seed=5)
    stack = TrainedStack.from_levels(build(stacked_spec(ds.d, (4, 2)), seed=0))
    probe = train_probe(stack, ds.X, ds.y, ProbeSpec(epochs=3, hidden=3, seed=1))
    logreg = train_logreg(ds.X, ds.y)
    for model in (probe, logreg):
        expected = threshold_predictions(dense_forward(_layers(model), ds.X))
        assert model.predict(ds.X).tobytes() == expected.tobytes()


def test_probe_learns_separable_data_through_identity_stack():
    X, y = _separable_toy()
    stack = TrainedStack.identity(2)
    probe = train_probe(stack, X, y, ProbeSpec(epochs=200, seed=0))
    acc = (probe.predict(X) == y).mean()
    assert acc >= 0.95


def test_probe_seeded_determinism():
    ds = make_synthetic(n=150, seed=2)
    stack = TrainedStack.identity(ds.d)
    spec = ProbeSpec(epochs=10, seed=4)
    a = train_probe(stack, ds.X, ds.y, spec)
    b = train_probe(stack, ds.X, ds.y, spec)
    np.testing.assert_array_equal(a.encode(ds.X)[:, 0], b.encode(ds.X)[:, 0])


def test_sensitive_probe_reads_planted_attribute_from_raw_features():
    ds = make_synthetic(n=300, seed=3)
    audit = train_probe(TrainedStack.identity(ds.d), ds.X, ds.s,
                        ProbeSpec(epochs=60, seed=0))
    acc = (audit.predict(ds.X) == ds.s).mean()
    assert acc > 0.9


def test_probe_spec_validation():
    with pytest.raises(ValueError):
        ProbeSpec(hidden=-1)
    with pytest.raises(ValueError):
        ProbeSpec(epochs=0)


# ---------------------------------------------------------------------------
# logistic regression


def _signed_line():
    x = np.concatenate([np.linspace(-2, -0.02, 100), np.linspace(0.02, 2, 100)])
    return x.reshape(-1, 1), (x > 0).astype(int)


LOGREG_RIDGE = 1e-6   # as train_logreg's docstring states it


def _logreg_gradient(model, X, y) -> np.ndarray:
    """X~'(p - y)/n + ridge w at the model's weights and bias: the gradient
    of the objective ``train_logreg`` minimizes, zero at its optimum."""
    (W, b, _), = _layers(model)
    w = np.append(W[:, 0], b[0, 0])
    r = (sigmoid(model.encode(X)[:, 0]) - y) / len(y)
    return np.append(r @ X, r.sum()) + LOGREG_RIDGE * w


def test_logreg_threshold_near_zero_on_signed_line():
    X, y = _signed_line()
    model = train_logreg(X, y)
    lo, hi = model.encode(np.array([[-0.1], [0.1]]))[:, 0]
    assert lo < 0.0 <= hi


def test_logreg_invariant_to_duplicating_samples():
    X, y = _separable_toy(n=120, seed=5)
    a = train_logreg(X, y)
    b = train_logreg(np.vstack([X, X]), np.concatenate([y, y]))
    grid = np.random.default_rng(0).normal(size=(50, 2))
    np.testing.assert_allclose(sigmoid(a.encode(grid)[:, 0]), sigmoid(b.encode(grid)[:, 0]),
                               atol=1e-6)


def test_logreg_seeded_determinism():
    X, y = _separable_toy(n=80, seed=6)
    a = train_logreg(X, y)
    b = train_logreg(X, y)
    np.testing.assert_array_equal(a.encode(X)[:, 0], b.encode(X)[:, 0])


TOY_X, TOY_Y = _separable_toy()


@pytest.mark.parametrize("X,y", [
    pytest.param(*_signed_line(), id="signed-line"),
    pytest.param(TOY_X, TOY_Y, id="separable-toy"),
    pytest.param(np.column_stack([TOY_X, np.zeros(len(TOY_Y))]), TOY_Y, id="dead-column"),
    pytest.param(np.column_stack([TOY_X, TOY_X[:, 0]]), TOY_Y, id="duplicated-column"),
])
def test_logreg_converges_on_hard_inputs(X, y):
    # separable data has no finite unregularized optimum, and a dead or
    # duplicated column makes X'WX singular: the ridge keeps each solvable
    model = train_logreg(X, y)
    assert all(np.isfinite(a).all() for W, b, _ in _layers(model) for a in (W, b))
    assert np.abs(_logreg_gradient(model, X, y)).max() <= 1e-9
    assert (model.predict(X) == y).all()


def _cv_case(n, n_noise, flip_y, k):
    ds = make_synthetic(n=n, seed=0, n_noise=n_noise, flip_y=flip_y)
    ds = standardize(ds, np.arange(ds.n))
    return ds, make_folds(ds.n, k, 0)


# table1's raw-feature folds: the smoke config (separable labels, 3 folds of
# 2,000 x 6) and table1-adult (10% label noise, 2 folds of 6,000 x 100)
SMOKE_CV, ADULT_CV = (2000, 3, 0.0, 3), (6000, 97, 0.1, 2)


@pytest.mark.parametrize("shape", [pytest.param(SMOKE_CV, id="smoke"),
                                   pytest.param(ADULT_CV, id="table1-adult")])
def test_logreg_gradient_vanishes_at_the_solution(shape):
    ds, folds = _cv_case(*shape)
    for train_idx, _ in folds:
        X, y = ds.X[train_idx], ds.y[train_idx]
        assert np.abs(_logreg_gradient(train_logreg(X, y), X, y)).max() <= 1e-9


# the Adam reference stopped short of the optimum on separable labels, so
# there the two may disagree on a few rows near the boundary (5 to 10 of 667)
@pytest.mark.parametrize("shape,max_disagree", [pytest.param(SMOKE_CV, 15, id="smoke"),
                                                pytest.param(ADULT_CV, 0, id="table1-adult")])
def test_logreg_predicts_as_the_adam_reference(shape, max_disagree):
    ds, folds = _cv_case(*shape)
    for train_idx, test_idx in folds:
        newton = train_logreg(ds.X[train_idx], ds.y[train_idx]).predict(ds.X[test_idx])
        adam = adam_logreg(ds.X[train_idx], ds.y[train_idx]).predict(ds.X[test_idx])
        assert (newton != adam).sum() <= max_disagree
        truth = ds.y[test_idx]
        assert (newton == truth).mean() >= (adam == truth).mean()


def test_logreg_convergence_guard(monkeypatch):
    monkeypatch.setattr(downstream, "LOGREG_MAX_STEPS", 1)  # the toy takes 14 steps
    X, y = _separable_toy(n=40, seed=7)
    with pytest.raises(DivergenceError, match="converge"):
        train_logreg(X, y)


def test_logreg_non_convergence_is_a_run_error(monkeypatch):
    # the CLI turns RUN_ERRORS into exit code 1 (or a failed sweep row)
    monkeypatch.setattr(downstream, "LOGREG_MAX_STEPS", 1)
    X, y = _separable_toy(n=40, seed=7)
    with pytest.raises(cli.RUN_ERRORS, match="converge"):
        train_logreg(X, y)


@pytest.mark.parametrize("fit", [
    # Newton has no step size to blow up: features this large overflow the Hessian
    lambda X, y: train_logreg(X * 1e200, y),
    lambda X, y: train_probe(TrainedStack.identity(2), X, y, ProbeSpec(epochs=2)),
], ids=["logreg", "probe"])
def test_diverging_predictor_raises_divergence_error(fit, monkeypatch):
    monkeypatch.setattr(downstream, "PROBE_LR", 1e300)
    X, y = _separable_toy(n=40, seed=8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        fit(X, y)


def _reachable(obj) -> list:
    """Every object reachable from ``obj`` through attributes, slots and
    containers (not through an ndarray's base)."""
    seen, todo, found = set(), [obj], []
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        found.append(o)
        if isinstance(o, np.ndarray):
            continue
        if isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        else:
            todo.extend(getattr(o, "__dict__", {}).values())
            todo.extend(getattr(o, a) for a in getattr(type(o), "__slots__", ()) if hasattr(o, a))
    return found


def test_trained_predictors_hold_no_training_cache():
    # a forward record kept on the net would keep the training matrix (or a
    # batch of it) alive as long as the predictor, e.g. through the next
    # cross-validation fold's fit
    X, y = _separable_toy(n=90, seed=8)
    logreg = train_logreg(X, y)
    probe = train_probe(TrainedStack.identity(2), X, y, ProbeSpec(hidden=4, epochs=3, seed=2))
    for predictor in (logreg, probe):
        reachable = _reachable(predictor)
        arrays = [o for o in reachable if isinstance(o, np.ndarray)]
        assert not any(np.shares_memory(a, X) for a in arrays)
        # the layers' weights and biases only: no MLP, Param or gradient array
        layers = {id(a) for W, b, _ in _layers(predictor) for a in (W, b)}
        assert {id(a) for a in arrays} == layers
        assert not any(isinstance(o, (MLP, Param)) for o in reachable)


def test_trained_forest_holds_only_its_node_arrays_and_width():
    # no tree keeps its spec, its random stream or a view of the training rows
    X, y = _separable_toy(n=90, seed=8)
    forest = train_forest(X, y, ForestSpec(n_trees=3, max_depth=4, seed=1))
    assert vars(forest).keys() == {"trees", "n_features"} and forest.n_features == 2
    assert all(type(tree) is Tree for tree in forest.trees)
    reachable = _reachable(forest)
    assert not any(isinstance(o, (np.random.Generator, ForestSpec)) for o in reachable)
    arrays = [o for o in reachable if isinstance(o, np.ndarray)]
    assert not any(np.shares_memory(a, X) for a in arrays)
    assert {id(a) for a in arrays} == {id(a) for tree in forest.trees for a in tree}


# ---------------------------------------------------------------------------
# random forest


def test_forest_pure_class_constant_predictor():
    X = np.random.default_rng(0).normal(size=(30, 3))
    forest = train_forest(X, np.ones(30, dtype=int), ForestSpec(n_trees=10))
    np.testing.assert_array_equal(forest.predict(X), np.ones(30, dtype=int))


def test_forest_learns_xor_exactly():
    corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    X = np.tile(corners, (25, 1))
    y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
    forest = train_forest(X, y, ForestSpec(n_trees=50, seed=0))
    np.testing.assert_array_equal(forest.predict(corners),
                                  np.array([0, 1, 1, 0]))
    assert (forest.predict(X) == y).mean() == 1.0


def _unit_tree(X, y, max_depth=None, seed=0) -> Tree:
    """One tree grown on every row once, its columns drawn from a stream seeded ``seed``."""
    X, y = _fit_input(X, y)
    return _grow(X, _ranks(X), y, np.ones(X.shape[0]), np.random.default_rng(seed), max_depth)


def _tree_predict(tree: Tree, X) -> np.ndarray:
    return RandomForest([tree], np.shape(X)[1]).predict(X)


def test_single_tree_split_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=25)
    y = (x + 0.3 * rng.normal(size=25) > 0).astype(int)
    tree = _unit_tree(x.reshape(-1, 1), y, max_depth=1)
    thr, _ = brute_force_best_split(x.tolist(), y.tolist())
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(thr, abs=1e-12)


def test_threshold_sits_between_closest_opposite_values():
    x = np.array([0.0, 1.0, 2.0, 2.4, 3.0, 4.0])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = _unit_tree(x.reshape(-1, 1), y, max_depth=1)
    assert tree.threshold[0] == pytest.approx(2.2)


def test_split_between_adjacent_doubles_separates_them():
    # (a + b) / 2 rounds up to b here; the threshold falls back to a
    X = [[1 + 2**-52], [1 + 2**-51]]
    tree = _unit_tree(X, [0, 1], max_depth=5)
    np.testing.assert_array_equal(_tree_predict(tree, X), [0, 1])
    assert tree.feature.size == 3 and tree.threshold[0] == 1 + 2**-52


def test_unbounded_tree_on_rounding_midpoints_ends():
    # before the fallback, a split that sends every row one way repeated its
    # node forever when max_depth is None
    X, y = _rounding_column()
    with _deadline(seconds=20):
        tree = _unit_tree(X, y)
    np.testing.assert_array_equal(_tree_predict(tree, X), y)
    assert tree.feature.size == 2 * y.size - 1   # one leaf per row


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging where the platform has SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_forest_vote_is_tree_order_invariant():
    ds = make_synthetic(n=120, seed=9, flip_y=0.2)
    forest = train_forest(ds.X, ds.y, ForestSpec(n_trees=15, seed=1))
    before = forest.predict(ds.X)
    forest.trees = list(reversed(forest.trees))
    np.testing.assert_array_equal(forest.predict(ds.X), before)


def test_forest_tie_vote_goes_to_zero():
    X = np.random.default_rng(0).normal(size=(20, 2))
    always_one = _unit_tree(X, np.ones(20, dtype=int))
    always_zero = _unit_tree(X, np.zeros(20, dtype=int))
    np.testing.assert_array_equal(_tree_predict(always_one, X), np.ones(20, dtype=int))
    np.testing.assert_array_equal(_tree_predict(always_zero, X), np.zeros(20, dtype=int))
    forest = RandomForest([always_one, always_zero], 2)
    np.testing.assert_array_equal(forest.predict(X), np.zeros(20, dtype=int))


def test_leaf_majority_tie_predicts_zero():
    X = np.array([[0.0], [0.0]])   # one value: the root cannot split
    y = np.array([0, 1])
    tree = _unit_tree(X, y)
    np.testing.assert_array_equal(_tree_predict(tree, X), np.zeros(2, dtype=int))


def test_forest_seeded_determinism():
    ds = make_synthetic(n=100, seed=10, flip_y=0.3)
    a, b, c = (train_forest(ds.X, ds.y, ForestSpec(n_trees=8, seed=seed)) for seed in (2, 2, 3))
    node_bytes = [[arr.tobytes() for tree in f.trees for arr in tree] for f in (a, b, c)]
    assert node_bytes[0] == node_bytes[1]
    assert node_bytes[0] != node_bytes[2]


def test_forest_input_validation():
    with pytest.raises(ValueError):
        train_forest(np.array([[np.inf, 0.0]]), np.array([1]))
    with pytest.raises(ValueError):
        train_forest(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError):
        ForestSpec(max_depth=0)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _assert_same_trees(trees, reference):
    assert len(trees) == len(reference)
    for tree, want in zip(trees, reference):
        for name in TREE_ARRAYS:
            got = getattr(tree, name)
            assert got.dtype == want[name].dtype, name
            assert got.tobytes() == want[name].tobytes(), name


def _grower_cases():
    rng = np.random.default_rng(21)
    cases = []
    for d in (1, 2, 8, 100):
        X = rng.normal(size=(3000, d))
        y = (X[:, 0] + rng.normal(size=3000) > 0).astype(int)
        cases.append(pytest.param(X, y, ForestSpec(n_trees=2, max_depth=10, seed=d),
                                  id=f"continuous-d{d}"))
    X = rng.integers(0, 3, size=(500, 6)).astype(float)
    y = (X.sum(axis=1) + rng.integers(0, 3, size=500) > 6).astype(int)
    cases.append(pytest.param(X, y, ForestSpec(n_trees=3, seed=2), id="ties"))
    X = np.tile(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float), (25, 1))
    y = X[:, 0].astype(int) ^ X[:, 1].astype(int)
    cases.append(pytest.param(X, y, ForestSpec(n_trees=5), id="xor"))
    X = rng.normal(size=(600, 4))
    y = (rng.random(600) < 0.4).astype(int)
    cases.append(pytest.param(X, y, ForestSpec(n_trees=3), id="depth-none"))
    cases.append(pytest.param(X, np.ones(600, dtype=int), ForestSpec(n_trees=2), id="pure"))
    cases.append(pytest.param(np.array([[1.0, 2.0]]), np.array([1]), ForestSpec(n_trees=2),
                              id="one-row"))
    X = rng.normal(size=(300, 3))
    X[:, 1] = 7.0
    y = (X[:, 0] > 0).astype(int) ^ (rng.random(300) < 0.3)
    cases.append(pytest.param(X, y, ForestSpec(n_trees=3), id="constant-column"))
    y = (rng.random(50) < 0.5).astype(int)
    cases.append(pytest.param(np.ones((50, 3)), y, ForestSpec(n_trees=2), id="all-constant"))
    X, y = _rounding_column()
    cases.append(pytest.param(X, y, ForestSpec(n_trees=4, max_depth=12), id="midpoint-rounding"))
    return cases


def _rounding_column():
    """One column whose neighbours' midpoints round up to the upper value
    (adjacent doubles) or overflow (near the float range), labels alternating
    so that every neighbouring pair must be split apart."""
    near_one = [1.0]
    for _ in range(7):
        near_one.append(np.nextafter(near_one[-1], 2.0))
    x = np.array([-1.7e308, -1e308, *near_one, 1e308, 1.7e308])
    return x.reshape(-1, 1), np.arange(x.size) % 2


def _recombined_rows(X, rows=60):
    """Rows drawn column by column from X's values, each value as it is and
    one double to either side of it: mostly rows no tree trained on, on and
    beside the values the trees split between."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(0)
    drawn = X[rng.integers(0, X.shape[0], size=(rows, X.shape[1])), np.arange(X.shape[1])]
    return np.concatenate([drawn, np.nextafter(drawn, np.inf), np.nextafter(drawn, -np.inf)])


def _assert_forest_matches_reference(X, y, spec):
    forest, reference = train_forest(X, y, spec), reference_forest_trees(X, y, spec)
    _assert_same_trees(forest.trees, reference)
    rows = _recombined_rows(X)
    np.testing.assert_array_equal(forest.predict(rows), reference_forest_predict(reference, rows))


@pytest.mark.parametrize("X,y,spec", _grower_cases())
def test_level_wise_grower_matches_fifo_reference(X, y, spec):
    _assert_forest_matches_reference(X, y, spec)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 6),
    levels=st.integers(1, 4),
    max_depth=st.one_of(st.none(), st.integers(1, 5)),
    seed=st.integers(0, 2**16),
)
def test_grower_matches_reference_on_tied_data(n, d, levels, max_depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)) / 2.0   # few distinct values: heavy ties
    y = rng.integers(0, 2, size=n)
    _assert_forest_matches_reference(X, y, ForestSpec(n_trees=2, max_depth=max_depth, seed=seed))


def test_single_tree_on_unit_counts_matches_reference():
    rng = np.random.default_rng(22)
    X = np.round(rng.normal(size=(400, 9)), 1)
    y = (X[:, 0] + X[:, 3] + rng.normal(size=400) > 0).astype(int)
    spec = ForestSpec(n_trees=1, max_depth=7)
    tree = _unit_tree(X, y, spec.max_depth, seed=5)
    _assert_same_trees([tree], [reference_tree(X, y, spec, np.random.default_rng(5))])


@pytest.mark.parametrize("seed", range(4))
def test_in_place_gini_matches_the_expression_bitwise(seed):
    rng = np.random.default_rng(seed)
    shape = (6, 400)
    n = rng.integers(1, 40, size=shape[1]).astype(float)
    nl = np.minimum(np.floor(rng.random(shape) * n) + 1, n)      # 1..n: nr == 0 included
    pos = np.floor(rng.random(shape[1]) * (n + 1))
    lo, hi = np.maximum(0.0, pos - (n - nl)), np.minimum(nl, pos)
    pl = lo + np.floor(rng.random(shape) * (hi - lo + 1))
    counts = (nl, pl, n - nl, pos - pl, n)
    reals = tuple(rng.random(shape) * 5.0 for _ in range(4)) + (n,)   # not counts at all
    assert (counts[2] == 0).any() and (counts[2] > 0).any()
    for args in (counts, reals):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = reference_weighted_gini(*args)
            got = _weighted_gini(*(np.array(a) for a in args))
        assert got.tobytes() == want.tobytes()


TIED = np.random.default_rng(23)


@pytest.mark.parametrize("X,y", [
    pytest.param([[0.5]], [1], id="one-row"),
    pytest.param([[0.5], [0.5]], [0, 1], id="two-rows-one-key"),
    pytest.param([[0.5], [1.5]], [1, 0], id="two-rows-two-keys"),
    pytest.param([[1.0, 2.0], [1.0, 2.0], [1.0, 3.0], [0.0, 2.0]], [0, 1, 1, 0], id="four-rows"),
    pytest.param(TIED.integers(0, 2, size=(300, 3)), TIED.integers(0, 2, 300), id="two-values"),
    pytest.param(TIED.integers(0, 3, size=(500, 9)), TIED.integers(0, 2, 500), id="three-values"),
])
def test_packed_sort_matches_reference_on_ties(X, y):
    # runs of equal (node, rank) keys come out of the packed sort in row
    # order, the reference sorts stably per node: the trees must agree anyway
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    spec = ForestSpec(n_trees=3, seed=4)
    tree = _unit_tree(X, y, spec.max_depth, seed=5)
    _assert_same_trees([tree], [reference_tree(X, y, spec, np.random.default_rng(5))])
    _assert_same_trees(train_forest(X, y, spec).trees, reference_forest_trees(X, y, spec))


def test_forest_refuses_more_rows_than_the_packed_sort_holds():
    # the largest packed value at the limit: N/2 nodes, N live rows
    N = MAX_ROWS
    assert ((N // 2 - 1) * N + N - 1) * N + N - 1 < 2 ** 63
    X, y = np.broadcast_to(0.0, (N + 1, 1)), np.broadcast_to(0, (N + 1,))
    with pytest.raises(ValueError, match=f"at most {MAX_ROWS} rows"):
        train_forest(X, y, ForestSpec(n_trees=1))
    with pytest.raises(ValueError, match=f"at most {MAX_ROWS} rows"):
        _ranks(X)
    assert _ranks(X[:N]).shape == (N, 1)   # the limit itself is allowed


def _train_probe(X, y):
    return train_probe(TrainedStack.identity(X.shape[1]), X, y, ProbeSpec(epochs=1, hidden=2))


@pytest.mark.parametrize("train", [train_forest, train_logreg, _train_probe])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predictors_reject_nonfinite_features(train, bad):
    X, y = _separable_toy(n=40, seed=1)
    X[5, 1] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        train(X, y)


@pytest.mark.parametrize("train", [train_forest, train_logreg, _train_probe])
def test_predictors_reject_non_binary_labels(train):
    X, y = _separable_toy(n=40, seed=1)
    y[3] = 2
    with pytest.raises(ValueError, match="0/1"):
        train(X, y)


def test_forest_rejects_zero_rows():
    with pytest.raises(ValueError, match="zero rows"):
        train_forest(np.zeros((0, 3)), np.zeros(0, dtype=int), ForestSpec(n_trees=2))


@pytest.mark.parametrize("train", [
    train_logreg, _train_probe, lambda X, y: train_probe(TrainedStack.identity(3), X, y),
], ids=["logreg", "probe", "probe-default-spec"])
def test_probe_and_logreg_reject_zero_rows(train):
    with pytest.raises(ValueError, match="zero rows"):
        train(np.zeros((0, 3)), np.zeros(0))


@pytest.mark.parametrize("fit", [train_forest], ids=["forest"])   # the id keeps each case's name
@pytest.mark.parametrize("X, y, error", [
    (np.zeros((4, 0)), [0, 1, 0, 1], "zero features"),
    (np.zeros((0, 3)), [], "zero rows"),
    ([[0.0], [1.0]], [0, 1, 1], "do not align"),
    ([[0.0], [1.0]], [0, 2], "0/1"),
    ([[0.0], [np.nan], [1.0]], [0, 1, 1], "finite"),
], ids=["no-features", "no-rows", "misaligned", "label-2", "nan"])
def test_forest_and_tree_fits_check_their_input(fit, X, y, error):
    with pytest.raises(ValueError, match=error):
        fit(X, y)


def _stable_ranks(X):
    ranks = np.zeros(X.shape, dtype=np.int32)
    for j, col in enumerate(X.T):
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ranks[order[1:], j] = np.cumsum(xs[1:] != xs[:-1])
    return ranks


@pytest.mark.parametrize("seed", range(3))
def test_ranks_match_the_stable_sort_on_ties(seed):
    rng = np.random.default_rng(seed)
    n = 3000
    X = np.column_stack([
        rng.integers(0, 3, n) / 2.0,                        # three values
        rng.choice([-0.0, 0.0, 1.0], n),                    # signed zeros are one value
        np.where(rng.random(n) < 0.5, -0.0, 0.0),           # nothing but zeros
        np.full(n, 7.0),                                    # constant
        np.round(rng.normal(size=n), 1),                    # ties among many values
        rng.normal(size=n),                                 # no ties
    ])
    got = _ranks(X)
    assert got.dtype == np.int32
    assert got.tobytes() == _stable_ranks(X).tobytes()
    assert (got[:, 2] == 0).all() and got[:, 1].max() == 1


@pytest.mark.parametrize("width", [1, 3])
def test_forest_predict_rejects_another_width(width):
    X, y = _separable_toy(n=60, seed=2)
    forest = train_forest(X, y, ForestSpec(n_trees=3, max_depth=3))
    assert forest.n_features == 2
    with pytest.raises(ValueError, match="fitted on 2 features"):
        forest.predict(np.zeros((5, width)))


# ---------------------------------------------------------------------------
# cross-validation


def test_cv_constant_predictor_zero_gap():
    ds = make_synthetic(n=100, seed=11)
    ds.y[:] = 1  # degenerate label -> every tree is a constant-1 leaf
    result = cross_validate("forest", TrainedStack.identity(ds.d), ds, k=5,
                            seed=0, forest_spec=ForestSpec(n_trees=5))
    assert result.mean["delta_dp"] == 0.0
    assert result.std["delta_dp"] == 0.0
    assert result.mean["accuracy"] == 1.0


def test_cv_produces_k_reports():
    ds = make_synthetic(n=1000, seed=12)
    result = cross_validate("logreg", TrainedStack.identity(ds.d), ds, k=5, seed=1)
    assert result.meta == {"k": 5, "seed": 1}
    assert set(result.mean) == set(result.std) == {f.name for f in fields(FairnessReport)}


def test_cv_fits_each_fold_with_the_given_spec_seed(monkeypatch):
    # the CV seed seeds the folds; the forest spec's own seed seeds each forest
    ds = make_synthetic(n=120, seed=15)
    fitted = []

    def recording(X, y, spec):
        forest = train_forest(X, y, spec)
        fitted.append((X, y, forest))
        return forest

    monkeypatch.setattr(downstream, "train_forest", recording)
    cross_validate("forest", TrainedStack.identity(ds.d), ds, k=2, seed=0,
                   forest_spec=ForestSpec(n_trees=3, max_depth=3, seed=3))
    assert len(fitted) == 2
    for X, y, forest in fitted:
        expected = train_forest(X, y, ForestSpec(n_trees=3, max_depth=3, seed=3))
        assert [getattr(t, a).tobytes() for t in forest.trees for a in TREE_ARRAYS] == \
            [getattr(t, a).tobytes() for t in expected.trees for a in TREE_ARRAYS]


def test_cv_unknown_model_kind():
    ds = make_synthetic(n=50, seed=0)
    with pytest.raises(ValueError) as exc:
        cross_validate("svm", TrainedStack.identity(ds.d), ds)
    for kind in MODEL_KINDS:
        assert kind in str(exc.value)


def test_cv_unknown_eo_mode():
    ds = make_synthetic(n=50, seed=0)
    with pytest.raises(ValueError, match="eo_mode"):
        cross_validate("logreg", TrainedStack.identity(ds.d), ds, k=2, eo_mode="bogus")


def test_cv_probe_kind_runs_on_encoded_features():
    ds = make_synthetic(n=120, seed=13)
    levels = build(stacked_spec(ds.d, (3,)), seed=0)
    stack = TrainedStack.from_levels(levels)
    result = cross_validate("probe", stack, ds, k=3, seed=0,
                            probe_spec=ProbeSpec(epochs=3, hidden=4))
    assert result.meta["k"] == 3
    assert set(result.mean) == set(result.std) == {f.name for f in fields(FairnessReport)}


def _report(dp, acc=0.8):
    return FairnessReport(
        accuracy=acc, delta_dp=dp, delta_eo=2 * dp, delta_eopp=dp,
        tpr_s0=0.5, tpr_s1=0.5, fpr_s0=0.1, fpr_s1=0.1,
        pos_rate_s0=0.5, pos_rate_s1=0.5 - dp, n_s0=10, n_s1=10,
    )


def test_aggregate_matches_hand_arithmetic():
    reports = [_report(dp) for dp in (0.1, 0.2, 0.3, 0.4, 0.5)]
    mean, std = aggregate_metrics([r.to_json() for r in reports])
    assert mean["delta_dp"] == pytest.approx(0.3)
    # sample std: sqrt(((0.2)^2+(0.1)^2+0+ (0.1)^2+(0.2)^2)/4)
    assert std["delta_dp"] == pytest.approx(np.sqrt(0.10 / 4), rel=1e-12)
    assert mean["delta_eo"] == pytest.approx(0.6)


def test_aggregate_propagates_none():
    reports = [_report(0.1), _report(0.2)]
    reports[1].delta_eo = None
    mean, std = aggregate_metrics([r.to_json() for r in reports])
    assert mean["delta_eo"] is None and std["delta_eo"] is None
    assert mean["delta_dp"] == pytest.approx(0.15)


def test_aggregate_single_report_std_zero():
    mean, std = aggregate_metrics([_report(0.25).to_json()])
    assert mean["delta_dp"] == pytest.approx(0.25)
    assert std["delta_dp"] == 0.0


def test_downstream_models_never_see_sensitive_column():
    ds = make_synthetic(n=200, seed=14)
    stack = TrainedStack.identity(ds.d)
    probe = train_probe(stack, ds.X, ds.y, ProbeSpec(epochs=2, hidden=3))
    assert _layers(probe)[0][0].shape[0] == ds.d  # width of X, no appended s
    model = train_logreg(ds.X, ds.y)
    assert _layers(model)[0][0].shape[0] == ds.d
