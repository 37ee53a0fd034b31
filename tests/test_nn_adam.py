import numpy as np
import pytest

from fairstack.autodiff import (Var, backward, bce_loss, forward, mse_loss, parameter,
                                zero_grads)
from fairstack.model import CRITERIA, adversary_input, build, stacked_spec
from fairstack.nn import (ACTIVATIONS, BCE_EPS, Adam, MLP, bce_step, dense_forward,
                          init_weight, sigmoid)
from oracles import AdamReference, adam_reference_trace, masked_sigmoid


# ---------------------------------------------------------------------------
# layers


def test_init_weight_bounds_and_determinism():
    limit = np.sqrt(6.0 / (30 + 10))
    w1 = init_weight(np.random.default_rng(3), 30, 10)
    w2 = init_weight(np.random.default_rng(3), 30, 10)
    assert w1.shape == (30, 10)
    assert np.abs(w1).max() < limit
    assert np.array_equal(w1, w2)


def test_mlp_rejects_unknown_activation():
    with pytest.raises(ValueError) as exc:
        MLP([2, 2], np.random.default_rng(0), output_activation="tanh")
    assert "tanh" in str(exc.value)
    for name in ACTIVATIONS:
        assert name in str(exc.value)


def test_mlp_bias_starts_at_zero():
    mlp = MLP([3, 2], np.random.default_rng(0))
    np.testing.assert_array_equal(mlp.biases[0].value, np.zeros((1, 2)))


def test_mlp_activation_assignment():
    mlp = MLP([4, 3, 2, 1], np.random.default_rng(0), output_activation="sigmoid")
    assert mlp.activations == ["leaky_relu", "leaky_relu", "sigmoid"]
    assert mlp.in_dim == 4 and mlp.out_dim == 1


def test_mlp_needs_two_dims():
    with pytest.raises(ValueError):
        MLP([5], np.random.default_rng(0))


def test_graph_forward_matches_raw_forward_bitwise():
    rng = np.random.default_rng(5)
    mlp = MLP([3, 4, 2], rng, output_activation="sigmoid")
    x = np.random.default_rng(6).normal(size=(7, 3))
    assert np.array_equal(forward(mlp, Var(x)).value, mlp.forward_value(x))


def test_sigmoid_matches_the_masked_form_bytewise():
    edges = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf,
             1e308, -1e308, 5e-324, -5e-324]
    rng = np.random.default_rng(11)
    scales = [1e-300, 1e-100, 1e-20, 1e-5, 1.0, 10.0, 40.0, 100.0, 800.0]
    x = np.concatenate([edges, *(sc * rng.uniform(-1, 1, 400) for sc in scales)])
    for shape in ((-1, 1), (-1, 4)):
        xs = x.reshape(shape)
        assert sigmoid(xs).tobytes() == masked_sigmoid(xs).tobytes()
    # a nan only has to stay nan; its sign bit may differ
    assert np.isnan(sigmoid(np.array([[np.nan, -np.nan]]))).all()


def test_a_tape_records_each_layer_and_leaves_the_forward_unchanged():
    mlp = MLP([5, 4, 3, 1], np.random.default_rng(2), output_activation="sigmoid")
    x = np.random.default_rng(3).normal(size=(9, 5))
    tape: list = []
    out = mlp.forward_value(x, tape)
    assert out.tobytes() == mlp.forward_value(x).tobytes()
    assert len(tape) == len(mlp.weights)
    assert tape[0][0] is x and tape[-1][2] is out
    assert all(a[2] is b[0] for a, b in zip(tape, tape[1:]))
    for (W, b, act), (inp, pre, post) in zip(mlp.triples(), tape):
        assert pre.tobytes() == (inp @ W + b).tobytes()
        assert post.tobytes() == dense_forward([(W, b, act)], inp).tobytes()


def test_mlp_param_count():
    mlp = MLP([3, 4, 2], np.random.default_rng(0))
    assert len(mlp.params()) == 4  # two weights + two biases


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_gradient_times_lr():
    w = parameter([[1.0, -2.0]])
    w.grad[...] = [[0.3, -0.7]]
    Adam([w], lr=0.01).step()
    expected = np.array([[1.0, -2.0]]) - 0.01 * np.array([[0.3, -0.7]]) / (
        np.abs([[0.3, -0.7]]) + 1e-8
    )
    np.testing.assert_allclose(w.value, expected, atol=1e-12)


def test_adam_zero_gradient_is_noop():
    w = parameter([[1.5]])
    opt = Adam([w])
    opt.step()
    assert w.value[0, 0] == 1.5


def test_adam_trace_matches_reference_on_quadratic():
    # minimize w^2 from w=1; the graph builds w^2 as mse(w, 0) on a single row
    w = parameter([[1.0]])
    opt = Adam([w], lr=0.01)
    trace = [w.value[0, 0]]
    for _ in range(10):
        opt.zero_grad()
        backward(mse_loss(w, [[0.0]]))
        opt.step()
        trace.append(w.value[0, 0])
    expected = adam_reference_trace(lambda x: 2.0 * x, 1.0, 10, lr=0.01)
    np.testing.assert_allclose(trace, expected, atol=1e-12, rtol=0)


def test_adam_rejects_nonfinite_updates():
    w = parameter([[1.0]])
    w.grad[...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        Adam([w]).step()


def test_adam_zero_grad_clears_all_params():
    a, b = parameter([[1.0]]), parameter([[2.0]])
    a.grad[...] = 3.0
    b.grad[...] = 4.0
    Adam([a, b]).zero_grad()
    assert a.grad[0, 0] == 0.0 and b.grad[0, 0] == 0.0


def test_adam_rejects_a_parameter_listed_twice():
    # each parameter's storage becomes one slice of the flat buffer
    w = parameter([[1.0]])
    with pytest.raises(ValueError, match="more than once"):
        Adam([w, w])


def test_in_place_adam_matches_the_reference_bytewise():
    # random gradients over many magnitudes, zeros included, for 300 steps
    rng = np.random.default_rng(12)
    shapes = [(4, 3), (1, 3), (3, 1), (1, 1)]
    live = [parameter(rng.normal(size=sh)) for sh in shapes]
    ref = [parameter(p.value.copy()) for p in live]
    opt, ref_opt = Adam(live, lr=0.02), AdamReference(ref, lr=0.02)
    for step in range(300):
        for a, b in zip(live, ref):
            g = rng.normal(size=a.value.shape) * 10.0 ** rng.integers(-12, 6)
            g[rng.random(g.shape) < 0.2] = 0.0
            a.grad[...] = g
            b.grad[...] = g
        opt.step()
        ref_opt.step()
        for a, b in zip(live, ref):
            assert a.value.tobytes() == b.value.tobytes(), f"step {step}"


# ---------------------------------------------------------------------------
# gradient-only BCE steps: bce_step with the in-place Adam against the graph's
# bce_loss + backward with the per-parameter reference Adam


def _assert_steps_match_the_graph(make_net, x, target, steps=200, lr=0.01):
    """Run ``steps`` steps of both paths on two copies of one net; the
    parameters must agree byte for byte after every step. Returns the count
    of steps whose predictions sat on the BCE clamp."""
    net, ref = make_net(), make_net()
    opt, ref_opt = Adam(net.params(), lr=lr), AdamReference(ref.params(), lr=lr)
    xv = Var(x)
    clamped = 0
    for step in range(steps):
        pred = net.forward_value(x)
        clamped += bool(((pred <= BCE_EPS) | (pred >= 1.0 - BCE_EPS)).any())
        bce_step(net, opt, x, target)
        zero_grads(ref.params())
        backward(bce_loss(forward(ref, xv), target))
        ref_opt.step()
        for a, b in zip(net.params(), ref.params()):
            assert a.value.tobytes() == b.value.tobytes(), f"step {step}"
    return clamped


@pytest.mark.parametrize("hidden", [0, 4])
def test_bce_step_matches_the_graph_with_clamped_predictions(hidden):
    rng = np.random.default_rng(hidden)
    x = 40.0 * rng.normal(size=(50, 3))   # large logits: the sigmoid saturates
    target = (x[:, :1] + 20.0 * rng.normal(size=(50, 1)) > 0).astype(float)
    dims = [3, hidden, 1] if hidden else [3, 1]
    make = lambda: MLP(dims, np.random.default_rng(7), output_activation="sigmoid")
    assert _assert_steps_match_the_graph(make, x, target, steps=200, lr=0.05) > 0


@pytest.mark.parametrize("criterion", CRITERIA)
def test_adversary_steps_match_the_graph(criterion):
    rng = np.random.default_rng(len(criterion))
    X = rng.normal(size=(64, 6))
    y, s = rng.integers(0, 2, 64), rng.integers(0, 2, 64)
    spec = stacked_spec(6, (3,), criterion=criterion, adv_hidden=5)
    level = build(spec, seed=1)[0]
    rows, idx = adversary_input(level, level.encoder.forward_value(X), y)
    assert rows.shape[1] == 3 + (criterion == "eo")
    assert (idx.size < 64) == (criterion == "eopp")
    target = s[idx].reshape(-1, 1).astype(float)
    _assert_steps_match_the_graph(lambda: build(spec, seed=1)[0].adversary, rows, target)
