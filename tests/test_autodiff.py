import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairstack.autodiff import (
    DimensionError,
    GraphError,
    Var,
    add,
    backward,
    bce_loss,
    concat_cols,
    leaky_relu,
    matmul,
    mse_loss,
    parameter,
    scale,
    sigmoid,
    sum_all,
    take_rows,
    zero_grads,
)
from oracles import finite_difference, grad_close


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Var([[1.0, 2.0], [3.0, 4.0]])
    eye = Var([[1.0, 0.0], [0.0, 1.0]])
    out = matmul(a, eye)
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_inner_product():
    out = matmul(Var([[1.0, 2.0]]), Var([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.value, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        matmul(Var(np.zeros((2, 2))), Var(np.zeros((3, 1))))
    assert "(2, 2)" in str(exc.value)
    assert "(3, 1)" in str(exc.value)


def test_matmul_grad_matches_finite_differences():
    a0 = np.ones((2, 2))
    b0 = 2.0 * np.eye(2)

    a = parameter(a0)
    loss = sum_all(matmul(a, Var(b0)))
    backward(loss)
    np.testing.assert_allclose(a.grad, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)

    numeric = finite_difference(lambda m: float((m @ b0).sum()), a0)
    assert grad_close(a.grad, numeric)


# ---------------------------------------------------------------------------
# bce_loss, on logits


def test_bce_coin_flip_is_ln2():
    loss = bce_loss(Var([[0.0]]), [[1.0]])
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_confident_correct_is_tiny():
    eps = 1e-7
    loss = bce_loss(Var([[math.log((1.0 - eps) / eps)]]), [[1.0]])   # sigmoid: 1 - eps
    assert 0.0 < loss.item() < 2.0 * eps


def test_bce_mean_over_entries():
    loss = bce_loss(Var([[math.log(9.0), -math.log(9.0)]]), [[1.0, 0.0]])   # 0.9, 0.1
    assert loss.item() == pytest.approx(-math.log(0.9), rel=1e-10)
    assert loss.item() == pytest.approx(0.105361, abs=1e-6)


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        bce_loss(Var([[0.0, 0.0]]), [[1.0]])


def test_bce_of_a_saturated_logit_is_exact():
    # a logit whose sigmoid rounds to 1 or 0 still has its exact loss |l|
    assert bce_loss(Var([[800.0]]), [[0.0]]).item() == 800.0
    assert bce_loss(Var([[-800.0]]), [[1.0]]).item() == 800.0


def test_bce_gradient_of_a_saturated_logit_is_sigmoid_minus_target():
    # wrong and saturated: the full gradient (sigmoid(l) - t) / n, not 0
    p = parameter([[800.0, 0.0]])
    backward(bce_loss(p, [[0.0, 0.0]]))
    np.testing.assert_array_equal(p.grad, [[0.5, 0.25]])
    # right and saturated: sigmoid(l) rounds to t, so the gradient is 0
    q = parameter([[800.0, -800.0]])
    backward(bce_loss(q, [[1.0, 0.0]]))
    np.testing.assert_array_equal(q.grad, [[0.0, 0.0]])


# ---------------------------------------------------------------------------
# mse_loss


def test_mse_zero_iff_equal():
    x = Var([[1.0, 2.0], [3.0, 4.0]])
    assert mse_loss(x, x.value).item() == 0.0


def test_mse_three_four_five():
    assert mse_loss(Var([[3.0, 4.0]]), [[0.0, 0.0]]).item() == 25.0


def test_mse_is_mean_of_row_squared_norms():
    recon = Var([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert mse_loss(recon, np.zeros((2, 3))).item() == 2.0


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse_loss(Var([[1.0]]), [[1.0, 2.0]])


def test_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(3, 2))
    t = rng.normal(size=(3, 2))
    x = parameter(x0)
    backward(mse_loss(x, t))
    numeric = finite_difference(lambda m: float(((m - t) ** 2).sum() / 3), x0)
    assert grad_close(x.grad, numeric)


# ---------------------------------------------------------------------------
# backward


def test_backward_of_sum_is_ones():
    w = parameter(np.arange(6.0).reshape(2, 3))
    backward(sum_all(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_accumulates_exactly():
    w = parameter([[1.0, -2.0], [0.5, 3.0]])
    x = Var([[1.0, 2.0]])
    loss = sum_all(sigmoid(matmul(x, w)))
    backward(loss)
    once = w.grad.copy()
    backward(loss)
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def test_backward_through_composite_network():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(3, 1)) * 0.5
    t = rng.integers(0, 2, size=(4, 1)).astype(float)

    w = parameter(w0)
    backward(bce_loss(matmul(Var(x0), w), t))

    def f(m):
        p = 1.0 / (1.0 + np.exp(-(x0 @ m)))
        return float(-(t * np.log(p) + (1 - t) * np.log(1 - p)).mean())

    assert grad_close(w.grad, finite_difference(f, w0))


def test_backward_requires_scalar():
    w = parameter(np.ones((2, 2)))
    with pytest.raises(GraphError):
        backward(matmul(w, w))


def test_backward_ignores_non_parameter_leaves():
    x = Var(np.ones((2, 2)))
    w = parameter(np.ones((2, 2)))
    backward(sum_all(matmul(x, w)))
    np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))


def test_zero_grads_resets():
    w = parameter(np.ones((2, 2)))
    backward(sum_all(w))
    zero_grads([w])
    np.testing.assert_array_equal(w.grad, np.zeros((2, 2)))


def test_diamond_graph_gradient():
    # z used twice: loss = sum(z) + sum(2 z) should give grad 3 everywhere.
    w = parameter(np.ones((2, 2)))
    z = scale(w, 1.0)
    backward(add(sum_all(z), sum_all(scale(z, 2.0))))
    np.testing.assert_array_equal(w.grad, np.full((2, 2), 3.0))


# ---------------------------------------------------------------------------
# structural ops


def test_concat_cols_split_gradient():
    a = parameter(np.ones((2, 2)))
    b = parameter(np.ones((2, 1)))
    out = concat_cols(a, b)
    assert out.value.shape == (2, 3)
    backward(sum_all(scale(out, 2.0)))
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 1), 2.0))


def test_concat_cols_row_mismatch():
    with pytest.raises(DimensionError):
        concat_cols(Var(np.ones((2, 2))), Var(np.ones((3, 1))))


def test_take_rows_scatters_gradient_with_repeats():
    w = parameter(np.arange(6.0).reshape(3, 2))
    backward(sum_all(take_rows(w, [0, 0, 2])))
    np.testing.assert_array_equal(w.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_add_broadcasts_bias_row():
    x = Var(np.zeros((3, 2)))
    b = parameter([[1.0, 2.0]])
    out = add(x, b)
    assert out.value.shape == (3, 2)
    backward(sum_all(out))
    np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])


def test_add_incompatible_shapes():
    with pytest.raises(DimensionError):
        add(Var(np.ones((2, 3))), Var(np.ones((2, 2))))


def test_relu_and_leaky_relu_values():
    x = Var([[-2.0, 0.0, 3.0]])
    np.testing.assert_allclose(leaky_relu(x).value, [[-0.02, 0.0, 3.0]])


def test_forward_is_pure():
    x = np.linspace(-2, 2, 12).reshape(3, 4)
    first = sigmoid(leaky_relu(Var(x))).value
    second = sigmoid(leaky_relu(Var(x))).value
    assert np.array_equal(first, second)
    assert np.array_equal(x, np.linspace(-2, 2, 12).reshape(3, 4))


# ---------------------------------------------------------------------------
# property: analytic vs numeric gradients on randomized cases


def _safe_matrices(rows, cols):
    return hnp.arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-2),
    )


@settings(max_examples=60, deadline=None)
@given(x=_safe_matrices(3, 2), w=_safe_matrices(2, 2))
def test_gradient_property_smooth_chain(x, w):
    wv = parameter(w)
    loss = mse_loss(sigmoid(matmul(Var(x), wv)), np.full((3, 2), 0.5))
    backward(loss)

    def f(m):
        p = 1.0 / (1.0 + np.exp(-(x @ m)))
        return float(((p - 0.5) ** 2).sum() / 3)

    assert grad_close(wv.grad, finite_difference(f, w))


@settings(max_examples=60, deadline=None)
@given(x=_safe_matrices(2, 3))
def test_gradient_property_leaky_relu_away_from_kink(x):
    xv = parameter(x)
    backward(sum_all(leaky_relu(xv)))
    numeric = finite_difference(
        lambda m: float(np.where(m > 0, m, 0.01 * m).sum()), x
    )
    assert grad_close(xv.grad, numeric)
