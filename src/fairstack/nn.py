"""Parameters, dense layers, MLPs and the Adam optimizer used by every network.

Weight initialization is uniform in +-sqrt(6 / (fan_in + fan_out)); biases
start at zero. Hidden activations default to leaky ReLU (slope 0.01).

Every forward pass, training or inference, is one :func:`dense_forward`.
A training step hands it a tape, a list that receives each layer's input,
pre-activation and output; ``MLP.backward(tape, g)`` walks that tape in
reverse and accumulates into each :class:`Param`'s ``.grad``. The caller owns
the tape, so a network keeps no copy of what it last saw. :func:`mse` returns
a loss with its gradient, :func:`bce` and :func:`bce_grad` apart, so a step
that reads no loss computes none (a non-finite gradient then fails
:class:`Adam`'s check). The reference graph does the same element-wise math
in the same order, byte for byte, and no production module imports it.
"""

from __future__ import annotations

import math
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


def dense_forward(layers, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """act(x @ W + b) through (W, b, activation) triples; given a ``tape``
    list, append each layer's (input, pre-activation, output) to it."""
    for W, b, act in layers:
        pre = x @ W + b
        out = apply_activation(act, pre)
        if tape is not None:
            tape.append((x, pre, out))
        x = out
    return x


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

    def backward(self, record: tuple, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """Pull d(loss)/d(output) ``g`` back through the forward that left
        ``record`` = (input, pre-activation, output): accumulate into the
        weight's and bias's ``.grad`` (unless ``param_grads`` is off) and
        return d(loss)/d(input) (None unless ``input_grad``)."""
        x, pre, out = record
        if self.activation == "relu":
            g = g * (pre > 0)
        elif self.activation == "leaky_relu":
            g = g * np.where(pre > 0, 1.0, LEAKY_SLOPE)
        elif self.activation == "sigmoid":
            g = g * out * (1.0 - out)
        if param_grads:
            self.weight.grad += x.T @ g
            self.bias.grad += np.add.reduce(g, axis=0, keepdims=True)
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

    def triples(self) -> list[tuple[np.ndarray, np.ndarray, str]]:
        """(weight, bias, activation) per layer, as :func:`dense_forward` takes them."""
        return [(l.weight.value, l.bias.value, l.activation) for l in self.layers]

    def forward_value(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """:func:`dense_forward` through this net's layers."""
        return dense_forward(self.triples(), x, tape)

    def backward(self, tape: list, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """:meth:`DenseLayer.backward` through every layer, last to first,
        each reading its record of ``tape``, as :meth:`forward_value` filled it."""
        for i in range(len(self.layers) - 1, -1, -1):
            g = self.layers[i].backward(tape[i], g, input_grad or i > 0, param_grads)
        return g

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]


def bce(predicted: np.ndarray, target: np.ndarray) -> float:
    """Mean BCE of ``predicted``, clamped into [BCE_EPS, 1-BCE_EPS], against ``target``."""
    return _bce_value(np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS), target)


def bce_grad(predicted: np.ndarray, target: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``scale`` times the gradient of :func:`bce` (zero where its clamp is active)."""
    return _bce_grad(predicted, np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS), target, scale)


def _bce_with_grad(predicted: np.ndarray, target: np.ndarray,
                   scale: float) -> tuple[float, np.ndarray]:
    """:func:`bce` and :func:`bce_grad` of one head, clamping it once."""
    p = np.clip(predicted, BCE_EPS, 1.0 - BCE_EPS)
    return _bce_value(p, target), _bce_grad(predicted, p, target, scale)


def _bce_value(p: np.ndarray, target: np.ndarray) -> float:
    value = float(-(target * np.log(p) + (1.0 - target) * np.log1p(-p)).mean())
    if not math.isfinite(value):
        raise FloatingPointError("non-finite values in bce_loss")
    return value


def _bce_grad(predicted: np.ndarray, p: np.ndarray, target: np.ndarray,
              scale: float) -> np.ndarray:
    inside = (predicted > BCE_EPS) & (predicted < 1.0 - BCE_EPS)
    return scale * inside * (p - target) / (p * (1.0 - p)) / p.size


def mse(reconstruction: np.ndarray, target: np.ndarray,
        scale: float | None = None) -> tuple[float, np.ndarray | None]:
    """Squared error per row and ``scale`` times its gradient, None without
    a ``scale``: the value and pullback of the graph's ``mse_loss``."""
    diff = reconstruction - target
    n_rows = target.shape[0]
    value = float((diff * diff).sum() / n_rows)
    if not math.isfinite(value):
        raise FloatingPointError("non-finite values in mse_loss")
    if scale is None:
        return value, None
    return value, scale * 2.0 * diff / n_rows


def bce_step(net: MLP, opt: Adam, x: np.ndarray, target: np.ndarray) -> None:
    """One Adam step of ``net`` on the BCE of ``net(x)`` against ``target``."""
    opt.zero_grad()
    tape: list = []
    net.backward(tape, bce_grad(net.forward_value(x, tape), target), input_grad=False)
    opt.step()


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
        self._a, self._b = np.empty_like(self.value), np.empty_like(self.value)

    def step(self) -> None:
        """The update above, in place through two scratch buffers, in its order."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        g, m, v, a, b = self.grad, self.m, self.v, self._a, self._b
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
        np.add(np.sqrt(np.divide(v, b2t, out=a), out=a), self.eps, out=a)  # sqrt(v_hat) + eps
        np.multiply(np.divide(m, b1t, out=b), self.lr, out=b)              # lr * m_hat
        self.value -= np.divide(b, a, out=b)
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
