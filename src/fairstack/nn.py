"""Parameters, MLPs and the Adam optimizer used by every network.

Each :class:`MLP` owns its parameters, one weight and one bias :class:`Param`
per layer, and there is no per-layer object. Weight initialization is uniform
in +-sqrt(6 / (fan_in + fan_out)); biases start at zero. Hidden layers are
leaky ReLU (slope 0.01), ``max(x, 0.01 * x)``, and the last layer is
identity: these two are :data:`ACTIVATIONS`, all a network can have. A
classifier, adversary or probe head therefore ends in a logit, and its BCE is
taken on that logit. The model file stores each activation by the code
:data:`model.ACTIVATION_CODES` gives it, not by its position here.

Every forward pass, training or inference, is one :func:`dense_forward`.
A training step hands it a tape, a list that receives each layer's input
and pre-activation; ``MLP.backward(tape, g)`` walks that tape in reverse,
through each layer's :func:`activation_pullback`, and accumulates into each
:class:`Param`'s ``.grad``. The caller owns the tape, so a network keeps no
copy of what it last saw. :func:`mse` and :func:`bce` return a loss and
``scale`` times its gradient; :func:`bce_grad` is the gradient alone, for a
step that reads no loss (a non-finite gradient then fails :class:`Adam`'s
check). The reference graph does the same math in the same order, byte for
byte; no production module imports it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .data import _allocatable

LEAKY_SLOPE = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ACTIVATIONS = ("identity", "leaky_relu")


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
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
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    """One of :data:`ACTIVATIONS` on a raw matrix; the graph's ops give the
    same bytes, so a forward pass gives the same bytes on both paths."""
    if name == "identity":
        return x
    if name == "leaky_relu":  # x where x > 0, else the larger LEAKY_SLOPE * x
        return np.maximum(x, LEAKY_SLOPE * x)
    raise ValueError(f"unknown activation {name!r}, expected one of {ACTIVATIONS}")


def activation_pullback(name: str, pre: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d(loss)/d(pre) from ``g`` = d(loss)/d(activation ``name`` of ``pre``)."""
    return np.where(pre > 0, g, g * LEAKY_SLOPE) if name == "leaky_relu" else g


def dense_forward(layers, x: np.ndarray, tape: list | None = None) -> np.ndarray:
    """act(x @ W + b) through (W, b, activation) triples; given a ``tape``
    list, append each layer's (input, pre-activation) to it."""
    for W, b, act in layers:
        pre = x @ W + b
        if tape is not None:
            tape.append((x, pre))
        x = apply_activation(act, pre)
    return x


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=_allocatable(fan_in, fan_out))


class MLP:
    """Dense layers act(x @ W + b) along a dim chain [d0, d1, ..., dk]: leaky
    ReLU on the hidden layers, identity on the last; each W is (d_i, d_i+1)
    and each b is (1, d_i+1)."""

    def __init__(self, dims: Sequence[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError(f"an MLP needs at least two dims, got {list(dims)}")
        self.weights = [Param(init_weight(rng, i, o)) for i, o in zip(dims, dims[1:])]
        self.biases = [Param(np.zeros((1, o))) for o in dims[1:]]
        self.activations = ["leaky_relu"] * (len(dims) - 2) + ["identity"]

    @property
    def in_dim(self) -> int:
        return self.weights[0].value.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].value.shape[1]

    def triples(self) -> list[tuple[np.ndarray, np.ndarray, str]]:
        """(weight, bias, activation) per layer, as :func:`dense_forward` takes them."""
        return [(W.value, b.value, act)
                for W, b, act in zip(self.weights, self.biases, self.activations)]

    def forward_value(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """:func:`dense_forward` through this net's layers."""
        return dense_forward(self.triples(), x, tape)

    def backward(self, tape: list, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True) -> np.ndarray | None:
        """Pull d(loss)/d(output) ``g`` back through the layers, last to first,
        each reading its (input, pre-activation) record of ``tape``, as
        :meth:`forward_value` filled it: accumulate into every weight's and
        bias's ``.grad`` (unless ``param_grads`` is off) and return
        d(loss)/d(input) (None unless ``input_grad``)."""
        for i in range(len(self.weights) - 1, -1, -1):
            x, pre = tape[i]
            g = activation_pullback(self.activations[i], pre, g)
            if param_grads:
                self.weights[i].grad += x.T @ g
                self.biases[i].grad += np.add.reduce(g, axis=0, keepdims=True)
            g = g @ self.weights[i].value.T if input_grad or i > 0 else None
        return g

    def params(self) -> list[Param]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]


def bce(logits: np.ndarray, target: np.ndarray,
        scale: float | None = None) -> tuple[float, np.ndarray | None]:
    """Mean BCE of sigmoid(``logits``) against ``target``, taken on the
    logits as ``mean(logaddexp(0, l) - t*l)``, and ``scale`` times its
    gradient :func:`bce_grad`, None without a ``scale``: the value and
    pullback of the graph's ``bce_loss``."""
    value = float(np.add.reduce(np.logaddexp(0.0, logits) - target * logits, axis=None)
                  / logits.size)
    if not math.isfinite(value):
        raise FloatingPointError("non-finite values in bce_loss")
    if scale is None:
        return value, None
    return value, scale * bce_grad(logits, target)


def bce_grad(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The gradient of :func:`bce` in its logits, ``(sigmoid(l) - t) / n``,
    alone, for a step that reads no loss."""
    return (sigmoid(logits) - target) / logits.size


def mse(reconstruction: np.ndarray, target: np.ndarray,
        scale: float | None = None) -> tuple[float, np.ndarray | None]:
    """Squared error per row and ``scale`` times its gradient, None without
    a ``scale``: the value and pullback of the graph's ``mse_loss``."""
    diff = reconstruction - target
    n_rows = target.shape[0]
    value = float(np.add.reduce(diff * diff, axis=None) / n_rows)
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
    """Adam with bias correction: p -= lr * m_hat / (sqrt(v_hat) + eps), with
    beta1, beta2 and eps fixed at :data:`ADAM_BETA1`, :data:`ADAM_BETA2` and
    :data:`ADAM_EPS`.

    The optimizer owns its parameters' storage: each ``.value`` and ``.grad``
    becomes a view into one flat buffer, so a step is one vectorized update
    and one finiteness check over all of them.
    """

    def __init__(self, params: Sequence[Param], lr: float = 0.01):
        params = list(params)
        if len({id(p) for p in params}) != len(params):
            raise ValueError("Adam: a parameter is listed more than once")
        self.lr = lr
        self.t = 0
        self.value = _flatten(params, "value")
        self.grad = _flatten(params, "grad")
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)

    def step(self) -> None:
        """The update above over the flat buffers, in its order. A moment that
        overflows raises FloatingPointError: an infinite ``v`` would zero
        every update and leave the parameters finite but frozen."""
        self.t += 1
        g = self.grad
        with np.errstate(over="raise"):
            self.m = self.m * ADAM_BETA1 + g * (1.0 - ADAM_BETA1)
            self.v = self.v * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2)
        self.value -= (self.m / (1.0 - ADAM_BETA1 ** self.t) * self.lr
                       / (np.sqrt(self.v / (1.0 - ADAM_BETA2 ** self.t)) + ADAM_EPS))
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
