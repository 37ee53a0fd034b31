"""Reverse-mode automatic differentiation: the reference the kernel is held to.

Every value in the graph is a 2-D numpy array. ``Var`` wraps a value together
with a gradient buffer of the same shape; operations build the graph by
recording parents and a vector-Jacobian closure. ``backward`` walks the graph
in reverse topological order and *accumulates* gradients into ``.grad`` --
call :func:`zero_grads` (or an optimizer's ``zero_grad``) between steps.

Finiteness is enforced at the API boundaries (loss values, optimizer
updates, user-constructed leaves), not after every intermediate op.

No production module imports this one: every training loop runs on the
explicit kernel of :mod:`nn`, whose parameters are plain :class:`nn.Param`
holders. The graph builders for the package's networks live here too:
:func:`forward` runs an MLP as a graph and :func:`level_loss` builds one
level's objective. Both make their leaves with :func:`leaf`, which shares a
parameter's ``value`` and ``grad``, so ``backward`` accumulates straight into
``Param.grad``. The finite-difference gate certifies this module, and the
kernel tests require the kernel to give its bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn
from .model import Level, _check_rows, adversary_rows
from .nn import BCE_EPS, LEAKY_SLOPE, DimensionError, Param, assert_finite


class GraphError(RuntimeError):
    """The computation graph was used outside its contract."""


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionError(f"expected a scalar, vector or matrix, got ndim={arr.ndim}")
    return arr


_node_counter = itertools.count()


class Var:
    """A node in the computation graph: a matrix value plus its gradient."""

    __slots__ = ("value", "grad", "requires_grad", "node_id", "_parents", "_vjp")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        _parents: tuple["Var", ...] = (),
        _vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.value = _as_matrix(value)
        self.grad = np.zeros_like(self.value)
        self.requires_grad = requires_grad
        self.node_id = next(_node_counter)
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise GraphError(f"item() requires a 1x1 value, got shape {self.value.shape}")
        return float(self.value[0, 0])

    # Scalar arithmetic sugar used when combining loss terms.
    def __add__(self, other: "Var") -> "Var":
        return add(self, other)

    def __sub__(self, other: "Var") -> "Var":
        return add(self, scale(other, -1.0))

    def __mul__(self, c) -> "Var":
        return scale(self, float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Var":
        return scale(self, -1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"


def as_var(x) -> Var:
    """Wrap an array as a constant Var; pass Vars through unchanged."""
    return x if isinstance(x, Var) else Var(x)


def leaf(p: Param) -> Var:
    """A requires-grad leaf over ``p``'s storage: it reads ``p.value``, and
    ``backward`` accumulates into ``p.grad``."""
    v = Var(p.value, requires_grad=True)
    v.grad = p.grad
    return v


def parameter(value) -> Var:
    """A leaf over a fresh :class:`nn.Param` (finite values only)."""
    return leaf(Param(_as_matrix(value)))


def _make(value: np.ndarray, parents: tuple[Var, ...], vjp) -> Var:
    req = any(p.requires_grad for p in parents)
    return Var(value, requires_grad=req, _parents=parents, _vjp=vjp if req else None)


# ---------------------------------------------------------------------------
# Operations


def matmul(a: Var, b: Var) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ, {a.value.shape} x {b.value.shape}"
        )
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return _make(av @ bv, (a, b), vjp)


def add(a: Var, b: Var) -> Var:
    """Elementwise addition; a (1, d) operand broadcasts over rows."""
    a, b = as_var(a), as_var(b)
    sa, sb = a.value.shape, b.value.shape
    if sa != sb and not (sa[1] == sb[1] and (sa[0] == 1 or sb[0] == 1)):
        raise DimensionError(f"add: incompatible shapes {sa} + {sb}")

    def vjp(g):
        ga = g.sum(axis=0, keepdims=True) if sa[0] == 1 and g.shape[0] != 1 else g
        gb = g.sum(axis=0, keepdims=True) if sb[0] == 1 and g.shape[0] != 1 else g
        return ga, gb

    return _make(a.value + b.value, (a, b), vjp)


def scale(a: Var, c: float) -> Var:
    a = as_var(a)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _make(a.value * c, (a,), vjp)


def relu(a: Var) -> Var:
    a = as_var(a)
    mask = a.value > 0

    def vjp(g):
        return (g * mask,)

    return _make(np.maximum(a.value, 0.0), (a,), vjp)


def leaky_relu(a: Var, slope: float = LEAKY_SLOPE) -> Var:
    a = as_var(a)
    mask = a.value > 0

    def vjp(g):
        return (g * np.where(mask, 1.0, slope),)

    return _make(np.where(mask, a.value, slope * a.value), (a,), vjp)


def sigmoid(a: Var) -> Var:
    a = as_var(a)
    s = nn.sigmoid(a.value)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), vjp)


def sum_all(a: Var) -> Var:
    a = as_var(a)
    shape = a.value.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return _make(np.array([[a.value.sum()]]), (a,), vjp)


def concat_cols(a: Var, b: Var) -> Var:
    """Column-wise concatenation [a | b] of two row-aligned matrices."""
    a, b = as_var(a), as_var(b)
    if a.value.shape[0] != b.value.shape[0]:
        raise DimensionError(
            f"concat_cols: row counts differ, {a.value.shape} | {b.value.shape}"
        )
    ca = a.value.shape[1]

    def vjp(g):
        return g[:, :ca], g[:, ca:]

    return _make(np.hstack([a.value, b.value]), (a, b), vjp)


def take_rows(a: Var, rows) -> Var:
    """Gather a subset of rows; the backward pass scatters gradients back."""
    a = as_var(a)
    idx = np.asarray(rows, dtype=np.intp)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return _make(a.value[idx], (a,), vjp)


# ---------------------------------------------------------------------------
# Losses


def bce_loss(predicted: Var, target) -> Var:
    """Mean binary cross-entropy -[t*log(p) + (1-t)*log(1-p)] over all entries.

    Predictions are clamped into [BCE_EPS, 1-BCE_EPS] before the log; the
    gradient is zero where the clamp is active.
    """
    predicted = as_var(predicted)
    t = _as_matrix(target)
    if predicted.value.shape != t.shape:
        raise DimensionError(
            f"bce_loss: prediction shape {predicted.value.shape} != target shape {t.shape}"
        )
    raw = predicted.value
    p = np.clip(raw, BCE_EPS, 1.0 - BCE_EPS)
    n = p.size
    value = float(-(t * np.log(p) + (1.0 - t) * np.log1p(-p)).mean())
    assert_finite(np.array(value), "bce_loss")
    inside = (raw > BCE_EPS) & (raw < 1.0 - BCE_EPS)

    def vjp(g):
        return (g[0, 0] * inside * (p - t) / (p * (1.0 - p)) / n,)

    return _make(np.array([[value]]), (predicted,), vjp)


def mse_loss(reconstruction: Var, target) -> Var:
    """Sum of squared errors divided by the number of rows (batch size)."""
    reconstruction = as_var(reconstruction)
    t = _as_matrix(target)
    if reconstruction.value.shape != t.shape:
        raise DimensionError(
            f"mse_loss: reconstruction shape {reconstruction.value.shape} "
            f"!= target shape {t.shape}"
        )
    diff = reconstruction.value - t
    n_rows = t.shape[0]
    value = float((diff * diff).sum() / n_rows)
    assert_finite(np.array(value), "mse_loss")

    def vjp(g):
        return (g[0, 0] * 2.0 * diff / n_rows,)

    return _make(np.array([[value]]), (reconstruction,), vjp)


# ---------------------------------------------------------------------------
# Backward pass


def backward(loss: Var) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires-grad node.

    Repeated calls without zeroing add up. Only nodes reachable from ``loss``
    through requires-grad parents are touched.
    """
    if not isinstance(loss, Var):
        raise GraphError("backward expects a Var")
    if loss.value.shape != (1, 1):
        raise GraphError(f"backward requires a 1x1 scalar loss, got shape {loss.value.shape}")

    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p.node_id not in seen:
                stack.append((p, False))

    # Per-pass gradient flow kept separate from .grad so that repeated
    # backward calls accumulate exactly (not compound through stale values).
    flow: dict[int, np.ndarray] = {loss.node_id: np.ones((1, 1))}
    for node in reversed(topo):
        g = flow.pop(node.node_id, None)
        if g is None:
            continue
        node.grad += g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flow.get(parent.node_id)
            flow[parent.node_id] = pg if acc is None else acc + pg


def zero_grads(params: Sequence[Param | Var]) -> None:
    for p in params:
        p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# The package's networks as graphs

_ACTIVATE = {"identity": lambda a: a, "relu": relu, "leaky_relu": leaky_relu,
             "sigmoid": sigmoid}


def forward(net: nn.MLP, x) -> Var:
    """``net`` on ``x`` as a graph over leaves of its parameters: the
    reference for ``net.forward_value(x)``."""
    for W, b, act in zip(net.weights, net.biases, net.activations):
        x = _ACTIVATE[act](add(matmul(x, leaf(W)), leaf(b)))
    return x


@dataclass
class LevelLoss:
    """The objective a level's main step descends, and its parts (graph nodes).

    ``objective`` is alpha*rec + gamma*cls - beta*adv: encoder, decoder and
    classifier minimize it, so they work against the adversary, which the
    trainer updates separately to minimize ``adv``. ``adv`` is None when the
    criterion subset of the batch is empty; ``objective`` then omits it.
    """

    objective: Var
    rec: Var
    cls: Var
    adv: Var | None
    n_adv: int


def level_loss(level: Level, z_prev, y: np.ndarray, s: np.ndarray,
               alpha: float, beta: float, gamma: float,
               eopp_label: int = 0) -> LevelLoss:
    """Reconstruction + adversary + classifier losses at one level, as a graph.

    ``z_prev`` is the level's input (matrix or graph node); the reconstruction
    target is its detached value. The adversary sees the rows
    :func:`model.adversary_input` picks. This is the reference
    :func:`model.level_grads` is checked against.
    """
    z_in = as_var(z_prev)
    y = np.asarray(y).reshape(-1)
    s = np.asarray(s).reshape(-1)
    _check_rows(z_in.value.shape[0], y, s, "level_loss")
    target = z_in.value.copy()
    z = forward(level.encoder, z_in)
    rec = mse_loss(forward(level.decoder, z), target)
    cls = bce_loss(forward(level.classifier, z), y.reshape(-1, 1).astype(float))
    objective = add(scale(rec, alpha), scale(cls, gamma))

    idx = adversary_rows(level, y, eopp_label)
    if idx.size == 0:
        return LevelLoss(objective=objective, rec=rec, cls=cls, adv=None, n_adv=0)
    rows = z if idx.size == y.shape[0] else take_rows(z, idx)
    if level.criterion == "eo":
        rows = concat_cols(rows, Var(y[idx].reshape(-1, 1).astype(float)))
    adv = bce_loss(forward(level.adversary, rows), s[idx].reshape(-1, 1).astype(float))
    return LevelLoss(objective=add(objective, scale(adv, -beta)), rec=rec, cls=cls,
                     adv=adv, n_adv=int(idx.size))
