"""Stacked fair auto-encoder architecture.

Each level owns four networks: an encoder E_i mapping the previous code z_{i-1}
to a narrower code z_i, a decoder D_i mirroring the encoder, a classifier head
h_i predicting the label from z_i, and an adversary head f_i predicting the
sensitive attribute from z_i: from every row under dp, every row plus the
label column under eo, and the y = 1 rows under eopp. Both heads end in a
logit, on which their BCE is taken.
Levels compose: z_0 is the raw input, z_i = E_i(z_{i-1}), with strictly
decreasing code widths, and level i trains on the frozen codes z_{i-1}. A
:class:`StackSpec` states z_0's width once, then groups the encoder widths
into levels: the stack and its single-level baseline are two groupings of
one width list (:func:`stacked_spec`, :func:`vanilla_spec`).
:func:`level_grads` computes a level's signed objective and its gradients on
the explicit :mod:`nn` kernel, holding the forward tape of each net it
back-propagates through; the graph form of the same objective, which the
tests check it against, lives with the reference graph engine. After
training, only the encoders survive as a :class:`TrainedStack`, which
serializes to a small binary format; the format, not :mod:`nn`, fixes the
code each activation is stored as (:data:`ACTIVATION_CODES`). A fitted
downstream probe or logistic regression is a :class:`TrainedStack` too, whose
code is one logit, and predicts 1 where the logit is >= 0.
"""

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import _bounded, _check, _check_fields
from .metrics import threshold_predictions
from .nn import MLP, DimensionError, bce, dense_forward, mse

CRITERIA = ("dp", "eo", "eopp")

MAGIC = b"FSTK"
FORMAT_VERSION = 1
# The byte each layer's activation is stored as. Code 1 was relu and code 3
# sigmoid (only ever a head's, never an encoder's), which no network has any
# more; they stay unassigned, so every file keeps its meaning.
ACTIVATION_CODES = {"identity": 0, "leaky_relu": 2}
_ACTIVATION_NAMES = {code: name for name, code in ACTIVATION_CODES.items()}


class SpecError(ValueError):
    """A stack specification violates its structural invariants."""


class ModelFormatError(ValueError):
    """A model file is corrupt, truncated, or from an unknown format version."""


@dataclass(frozen=True)
class StackSpec:
    """A stack: its input width, its levels in order, the loss weights and
    criterion every level trains with, and the widths of the heads. A level
    is its encoder's widths past its input, its code width last: 100 -> 20 -> 8
    is ``((20,), (8,))`` as a stack and ``((20, 8),)`` as one level. Lists
    are taken as tuples, so ``StackSpec(**d)`` reads back its JSON form. A
    field outside its type or bound raises :class:`SpecError`."""

    in_dim: int = _bounded(min=2)   # a code, at least 1 wide, is narrower
    levels: tuple[tuple[int, ...], ...]
    alpha: float = _bounded(1.0, min=0)
    beta: float = _bounded(1.0, min=0)
    gamma: float = _bounded(1.0, min=0)
    criterion: str = _bounded("dp", choices=CRITERIA)
    adv_hidden: int = _bounded(20, min=0)   # a head's hidden width, 0: linear
    cls_hidden: int = _bounded(20, min=0)

    def __post_init__(self):
        _check_fields(self, SpecError)
        levels = tuple(tuple(lv) if isinstance(lv, (list, tuple)) else lv for lv in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise SpecError("a stack needs at least one level")
        for i, widths in enumerate(levels):
            if not (isinstance(widths, tuple) and widths):
                raise SpecError(f"level {i}: expected a non-empty list of widths, got {widths!r}")
            for w in widths:
                _check(w, f"level {i} width", int, min=1, error=SpecError)
        for i, (in_dim, widths) in enumerate(zip(self.level_inputs(), levels)):
            if widths[-1] >= in_dim:
                raise SpecError(f"level {i}: code width {widths[-1]} must be strictly smaller "
                                f"than its input width {in_dim} (widths must decrease)")

    def level_inputs(self) -> list[int]:
        """Each level's input width: ``in_dim``, then each code width but the last."""
        return [self.in_dim, *(widths[-1] for widths in self.levels[:-1])]

    def to_dict(self) -> dict:
        return asdict(self)


def spec_hash(spec: StackSpec) -> str:
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stacked_spec(in_dim: int, latents, **kwargs) -> StackSpec:
    """A stack of single-layer encoders: in_dim -> latents[0] -> latents[1] ..."""
    return StackSpec(in_dim, tuple((latent,) for latent in latents), **kwargs)


def vanilla_spec(in_dim: int, latents, **kwargs) -> StackSpec:
    """The single-level baseline: one encoder through the same widths and one
    adversary acting on the final code only."""
    return StackSpec(in_dim, (tuple(latents),), **kwargs)


# ---------------------------------------------------------------------------
# Levels


def head_dims(in_dim: int, hidden: int) -> list[int]:
    """Dims of a logit head: in_dim -> hidden -> 1, or in_dim -> 1 when hidden is 0."""
    return [in_dim, hidden, 1] if hidden > 0 else [in_dim, 1]


class Level:
    """One trainable level: encoder, mirrored decoder, classifier, adversary."""

    def __init__(self, in_dim: int, widths: tuple[int, ...], criterion: str, adv_hidden: int,
                 cls_hidden: int, rng: "np.random.Generator"):  # quoted: numpy.random loads on use
        enc_dims = [in_dim, *widths]
        self.criterion = criterion
        self.encoder = MLP(enc_dims, rng)
        self.decoder = MLP(enc_dims[::-1], rng)
        self.classifier = MLP(head_dims(widths[-1], cls_hidden), rng)
        adv_in = widths[-1] + (1 if criterion == "eo" else 0)
        self.adversary = MLP(head_dims(adv_in, adv_hidden), rng)


def build(spec: StackSpec, seed: int) -> list[Level]:
    """Freshly initialized levels; deterministic per seed (one rng stream,
    networks created in a fixed order)."""
    rng = np.random.default_rng(seed)
    return [Level(in_dim, widths, spec.criterion, spec.adv_hidden, spec.cls_hidden, rng)
            for in_dim, widths in zip(spec.level_inputs(), spec.levels)]


# ---------------------------------------------------------------------------
# Per-level loss


def adversary_input(level: Level, z: np.ndarray,
                    y: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | slice]:
    """The adversary's input rows of the codes ``z`` and their index into ``z``,
    which the caller applies to each of its per-row arrays, as ``s[idx]``.

    The rows are the y == 1 rows under eopp, else all rows; under eo the labels
    ``y``, an (n, 1) float column, are appended. The index is ``slice(None)``
    under dp and eo, every row in order, and the y == 1 positions under eopp;
    the input is None when no row qualifies."""
    if level.criterion != "eopp":
        return (np.concatenate((z, y), axis=1) if level.criterion == "eo" else z), slice(None)
    idx = np.flatnonzero(y == 1)
    return (z[idx] if idx.size else None), idx


def _check_rows(n: int, y: np.ndarray, s: np.ndarray, what: str) -> None:
    if y.shape[0] != n or s.shape[0] != n:
        raise DimensionError(f"{what}: {n} rows vs y {y.shape[0]}, s {s.shape[0]}")


def level_grads(level: Level, x: np.ndarray, y: np.ndarray, s: np.ndarray,
                alpha: float, beta: float, gamma: float) -> tuple[float, float, float | None]:
    """The objective of a level's main step, alpha*rec + gamma*cls - beta*adv,
    on the explicit kernel: forward the level's input ``x`` through the level
    and accumulate d(objective)/d(parameter) into ``.grad`` of its encoder,
    classifier and decoder. The adversary is only read; the trainer updates
    it separately to minimize adv, so the two sides play against each other.

    ``y`` and ``s`` hold 0/1 values, one per row; the trainer's float columns
    are used as they are. Each net that back-propagates gets its own tape,
    held here for the length of the call. With ``alpha == 0`` the decoder's
    gradient is exactly zero: its forward pass still gives the rec value, but
    it keeps no tape, its backward pass is skipped and its ``.grad`` is left
    alone. Returns the rec, cls and adv loss values; adv is None when the
    criterion subset of the batch is empty.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)  # no copy of a float column
    s = np.asarray(s, dtype=np.float64).reshape(-1, 1)
    _check_rows(x.shape[0], y, s, "level_grads")
    enc_tape, cls_tape, dec_tape = [], [], ([] if alpha else None)
    z = level.encoder.forward_value(x, enc_tape)
    rec, g_rec = mse(level.decoder.forward_value(z, dec_tape), x, alpha if alpha else None)
    cls, g_cls = bce(level.classifier.forward_value(z, cls_tape), y, gamma)
    # d(objective)/dz sums the heads in the graph's order: rec, cls, adv
    g_z = level.classifier.backward(cls_tape, g_cls)
    if g_rec is not None:
        g_z = level.decoder.backward(dec_tape, g_rec) + g_z
    rows, idx = adversary_input(level, z, y)
    adv = None
    if rows is not None:
        adv_tape: list = []
        s_logit = level.adversary.forward_value(rows, adv_tape)
        adv, g_adv = bce(s_logit, s[idx], -beta)
        # the codes' columns of the input gradient, added to the rows they came
        # from; under eo the last column is the label (g_z is this call's own)
        g_z[idx] += level.adversary.backward(adv_tape, g_adv, param_grads=False)[:, :z.shape[1]]
    level.encoder.backward(enc_tape, g_z, input_grad=False)
    return rec, cls, adv


# ---------------------------------------------------------------------------
# Encoder-only artifact


@dataclass
class TrainedStack:
    """Encoder weights of a trained stack; nothing else survives training.
    A fitted probe or logistic regression is one too, whose code is one logit.

    ``levels`` holds, per level, a list of (weight, bias, activation-name)
    dense-layer triples. Supports numpy-only encoding and a binary file
    format (magic FSTK, version, dims, per layer its width pair, activation
    code and row-major float64 weights, then a provenance JSON blob).
    """

    in_dim: int
    levels: list[list[tuple[np.ndarray, np.ndarray, str]]]
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_levels(cls, levels: list[Level], provenance: dict | None = None) -> "TrainedStack":
        snap = [[(W.copy(), b.copy(), act) for W, b, act in lv.encoder.triples()]
                for lv in levels]
        return cls(in_dim=levels[0].encoder.in_dim if levels else 0, levels=snap,
                   provenance=dict(provenance or {}))

    @classmethod
    def identity(cls, in_dim: int) -> "TrainedStack":
        """A zero-level stack: encode(X) = X. Used for the unfair baseline."""
        return cls(in_dim=in_dim, levels=[])

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def out_dim(self) -> int:
        if not self.levels:
            return self.in_dim
        return self.levels[-1][-1][0].shape[1]

    def encode(self, X: np.ndarray) -> np.ndarray:
        """z = E_k(...E_1(X)): every level's (W, b, act) triples applied to X,
        whose width must be ``in_dim``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise DimensionError(f"encode: expected input width {self.in_dim}, "
                                 f"got shape {X.shape}")
        for layers in self.levels:
            X = dense_forward(layers, X)
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard 0/1 labels of a stack whose code is one logit: 1 where it is >= 0."""
        if self.out_dim != 1:
            raise DimensionError(f"predict: the code must be one logit wide, got {self.out_dim}")
        return threshold_predictions(self.encode(X))

    # -- binary format ------------------------------------------------------

    def save(self, path) -> None:
        chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, self.in_dim),
                  struct.pack("<I", len(self.levels))]
        for layers in self.levels:
            chunks.append(struct.pack("<I", len(layers)))
            for W, b, act in layers:
                n_in, n_out = W.shape
                chunks.append(struct.pack("<IIB", n_in, n_out, ACTIVATION_CODES[act]))
                chunks.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
                chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
        prov = json.dumps(self.provenance, sort_keys=True).encode()
        chunks.append(struct.pack("<I", len(prov)))
        chunks.append(prov)
        with open(path, "wb") as fh:
            fh.write(b"".join(chunks))

    @classmethod
    def load(cls, path) -> "TrainedStack":
        with open(path, "rb") as fh:
            data = fh.read()
        pos = 0

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(data):
                raise ModelFormatError(f"truncated model file: {path}")
            out = data[pos:pos + n]
            pos += n
            return out

        if take(4) != MAGIC:
            raise ModelFormatError(f"not a stack model file (bad magic): {path}")
        version, in_dim = struct.unpack("<II", take(8))
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"model file has format version {version}; this build reads "
                f"version {FORMAT_VERSION}"
            )
        (n_levels,) = struct.unpack("<I", take(4))
        levels = []
        width = in_dim  # what the next layer must take: the header, then each n_out
        for i in range(n_levels):
            (n_layers,) = struct.unpack("<I", take(4))
            if n_layers == 0:
                raise ModelFormatError(f"level {i} has no layers: {path}")
            layers = []
            for j in range(n_layers):
                n_in, n_out, code = struct.unpack("<IIB", take(9))
                act = _ACTIVATION_NAMES.get(code)
                if act is None:
                    raise ModelFormatError(
                        f"unknown activation code {code} in level {i}, layer {j}: {path}")
                if n_in != width:
                    raise ModelFormatError(
                        f"level {i}, layer {j} takes width {n_in}, but its input has "
                        f"width {width}: {path}")
                if 0 in (n_in, n_out):
                    raise ModelFormatError(f"level {i}, layer {j} has a width of 0 "
                                           f"({n_in} -> {n_out}): {path}")
                width = n_out
                W = np.frombuffer(take(8 * n_in * n_out), dtype="<f8").reshape(n_in, n_out).copy()
                b = np.frombuffer(take(8 * n_out), dtype="<f8").reshape(1, n_out).copy()
                if not (np.isfinite(W).all() and np.isfinite(b).all()):
                    raise ModelFormatError(
                        f"non-finite weight or bias in level {i}, layer {j}: {path}")
                layers.append((W, b, act))
            levels.append(layers)
        if width == 0:  # a file with no level and a header in_dim of 0
            raise ModelFormatError(f"model input width is 0: {path}")
        (prov_len,) = struct.unpack("<I", take(4))
        try:
            provenance = json.loads(take(prov_len).decode())
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ModelFormatError(f"corrupt provenance block: {exc}") from exc
        if pos != len(data):
            raise ModelFormatError(f"trailing bytes after model data: {path}")
        return cls(in_dim=in_dim, levels=levels, provenance=provenance)
