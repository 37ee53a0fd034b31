"""Parameters, dense layers, MLPs and the Adam optimizer used by every network.

Weight initialization is uniform in +-sqrt(6 / (fan_in + fan_out)); biases
start at zero. Hidden activations default to leaky ReLU (slope 0.01).

Every training loop runs on one explicit kernel: ``forward_value(x,
cache=True)`` keeps each layer's input, pre-activation and output,
``backward(g)`` walks the layers in reverse and accumulates into each
:class:`Param`'s ``.grad``, and :func:`bce` / :func:`mse` return a loss value
with its gradient. The reference reverse-mode graph does the same element-wise
math in the same order; the tests hold this kernel to it byte for byte, and
no production module imports it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

BCE_EPS = 1e-7
LEAKY_SLOPE = 0.01
ACTIVATIONS = ("identity", "relu", "leaky_relu", "sigmoid")


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {what}")


class Param:
    """A trainable matrix and the gradient accumulated into it."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        assert_finite(self.value, "parameter")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: exp only ever sees -|x|."""
    t = np.exp(-np.abs(x))
    d = 1.0 + t
    return np.where(x >= 0, 1.0 / d, t / d)


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    """One of :data:`ACTIVATIONS` on a raw matrix; the graph's ops apply the
    same functions, so a forward pass gives the same bytes on both paths."""
    if name == "identity":
        return x
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "leaky_relu":
        return np.where(x > 0, x, LEAKY_SLOPE * x)
    if name == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"unknown activation {name!r}, expected one of {ACTIVATIONS}")


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class DenseLayer:
    """Affine map plus activation: act(x @ W + b), W is (in_dim, out_dim)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: np.random.Generator | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = Param(init_weight(rng, in_dim, out_dim))
        self.bias = Param(np.zeros((1, out_dim)))
        self._cache = None  # (input, pre-activation, output) of the last cached forward

    def forward_value(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        pre = x @ self.weight.value + self.bias.value
        out = apply_activation(self.activation, pre)
        if cache:
            self._cache = (x, pre, out)
        return out

    def backward(self, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """Pull d(loss)/d(output) ``g`` back through the last cached forward:
        accumulate into the weight's and bias's ``.grad`` (unless
        ``param_grads`` is off) and return d(loss)/d(input) (None unless
        ``input_grad``)."""
        x, pre, out = self._cache
        if self.activation == "relu":
            g = g * (pre > 0)
        elif self.activation == "leaky_relu":
            g = g * np.where(pre > 0, 1.0, LEAKY_SLOPE)
        elif self.activation == "sigmoid":
            g = g * out * (1.0 - out)
        if param_grads:
            self.weight.grad += x.T @ g
            self.bias.grad += g.sum(axis=0, keepdims=True)
        return g @ self.weight.value.T if input_grad else None

    def params(self) -> list[Param]:
        return [self.weight, self.bias]


class MLP:
    """A stack of dense layers defined by a dim chain [d0, d1, ..., dk]."""

    def __init__(self, dims: Sequence[int], rng: np.random.Generator,
                 hidden_activation: str = "leaky_relu",
                 output_activation: str = "identity"):
        if len(dims) < 2:
            raise ValueError(f"an MLP needs at least two dims, got {list(dims)}")
        self.layers: list[DenseLayer] = []
        for i in range(len(dims) - 1):
            act = output_activation if i == len(dims) - 2 else hidden_activation
            self.layers.append(DenseLayer(dims[i], dims[i + 1], act, rng))

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward_value(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward_value(x, cache)
        return x

    def backward(self, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """:meth:`DenseLayer.backward` through every layer, last to first."""
        for i in range(len(self.layers) - 1, -1, -1):
            g = self.layers[i].backward(g, input_grad or i > 0, param_grads)
        return g

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def clear_cache(self) -> None:
        """Drop every layer's cached forward, so a trained net keeps no copy
        of its training input."""
        for layer in self.layers:
            layer._cache = None


def bce(predicted: np.ndarray, target: np.ndarray,
        scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and ``scale`` times its gradient: the value
    and pullback of the graph's ``bce_loss`` (same clamp, zero gradient where
    it is active)."""
    p = np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS)
    value = float(-(target * np.log(p) + (1.0 - target) * np.log1p(-p)).mean())
    assert_finite(np.array(value), "bce_loss")
    inside = (predicted > BCE_EPS) & (predicted < 1.0 - BCE_EPS)
    return value, scale * inside * (p - target) / (p * (1.0 - p)) / p.size


def mse(reconstruction: np.ndarray, target: np.ndarray, root: bool = False,
        scale: float | None = None) -> tuple[float, np.ndarray | None]:
    """Squared error per row (its root with ``root``) and ``scale`` times its
    gradient, None without a ``scale``: the value and pullback of
    the graph's ``mse_loss``."""
    diff = reconstruction - target
    n_rows = target.shape[0]
    base = float((diff * diff).sum() / n_rows)
    assert_finite(np.array(base), "mse_loss")
    value = float(np.sqrt(base)) if root else base
    if scale is None:
        return value, None
    if not root:
        return value, scale * 2.0 * diff / n_rows
    if value == 0.0:  # derivative undefined at the minimum; use 0
        return value, np.zeros_like(diff)
    return value, scale * diff / (n_rows * value)


def bce_step(net: MLP, opt: Adam, x: np.ndarray, target: np.ndarray) -> float:
    """One Adam step of ``net`` on the BCE of ``net(x)`` against ``target``;
    returns the loss before the step."""
    opt.zero_grad()
    loss, g = bce(net.forward_value(x, cache=True), target)
    net.backward(g, input_grad=False)
    opt.step()
    return loss


class Adam:
    """Adam with bias correction: p -= lr * m_hat / (sqrt(v_hat) + eps).

    The optimizer owns its parameters' storage: each ``.value`` and ``.grad``
    becomes a view into one flat buffer, so a step is one vectorized update
    and one finiteness check over all of them.
    """

    def __init__(self, params: Sequence[Param], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("Adam: a parameter is listed more than once")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.value = _flatten(self.params, "value")
        self.grad = _flatten(self.params, "grad")
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g = self.grad
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * (g * g)
        m_hat = self.m / b1t
        v_hat = self.v / b2t
        self.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        assert_finite(self.value, f"parameter after Adam step {self.t}")

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def _flatten(params: list[Param], attr: str) -> np.ndarray:
    """Copy ``attr`` of every parameter into one flat buffer and rebind each
    to a view of its slice."""
    arrays = [getattr(p, attr) for p in params]
    flat = np.concatenate([a.ravel() for a in arrays]) if arrays else np.zeros(0)
    start = 0
    for p, a in zip(params, arrays):
        setattr(p, attr, flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat
