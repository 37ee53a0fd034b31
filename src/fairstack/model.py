"""Stacked fair auto-encoder architecture.

Each level owns four networks: an encoder E_i mapping the previous code z_{i-1}
to a narrower code z_i, a decoder D_i mirroring the encoder, a classifier head
h_i predicting the label from z_i, and an adversary head f_i predicting the
sensitive attribute from z_i: from every row under dp, every row plus the
label column under eo, and the y = 1 rows under eopp.
Levels compose: z_0 is the raw input, z_i = E_i(z_{i-1}), with strictly
decreasing code widths, and level i trains on the frozen codes z_{i-1}.
:func:`level_grads` computes a level's signed objective and its gradients on
the explicit :mod:`nn` kernel, holding the forward tape of each net it
back-propagates through; the graph form of the same objective, which the
tests check it against, lives with the reference graph engine. After
training, only the encoders survive as a :class:`TrainedStack`, which
serializes to a small binary format; the format, not :mod:`nn`, fixes the
code each activation is stored as (:data:`ACTIVATION_CODES`).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .nn import MLP, DimensionError, _bce_with_grad, dense_forward, mse

CRITERIA = ("dp", "eo", "eopp")

MAGIC = b"FSTK"
FORMAT_VERSION = 1
# The byte each layer's activation is stored as. Code 1 was relu, which no
# network has any more; it stays unassigned, so every file keeps its meaning.
ACTIVATION_CODES = {"identity": 0, "leaky_relu": 2, "sigmoid": 3}
_ACTIVATION_NAMES = {code: name for name, code in ACTIVATION_CODES.items()}


class SpecError(ValueError):
    """A stack specification violates its structural invariants."""


class ModelFormatError(ValueError):
    """A model file is corrupt, truncated, or from an unknown format version."""


@dataclass(frozen=True)
class LevelSpec:
    """Dims of one level's encoder: in_dim -> hidden... -> latent."""

    in_dim: int
    latent: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


@dataclass(frozen=True)
class StackSpec:
    levels: tuple[LevelSpec, ...]
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    criterion: str = "dp"
    adv_hidden: int = 20
    cls_hidden: int = 20

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        validate_spec(self)

    def to_dict(self) -> dict:
        return asdict(self)


def spec_hash(spec: StackSpec) -> str:
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def validate_spec(spec: StackSpec) -> None:
    if not spec.levels:
        raise SpecError("a stack needs at least one level")
    for i, lv in enumerate(spec.levels):
        if lv.in_dim < 1 or lv.latent < 1 or any(h < 1 for h in lv.hidden):
            raise SpecError(f"level {i}: all dims must be >= 1, got {lv}")
        if lv.latent >= lv.in_dim:
            raise SpecError(
                f"level {i}: code width {lv.latent} must be strictly smaller "
                f"than its input width {lv.in_dim} (widths must decrease)"
            )
    for i in range(len(spec.levels) - 1):
        a, b = spec.levels[i], spec.levels[i + 1]
        if b.in_dim != a.latent:
            raise SpecError(
                f"dimension chain mismatch: level {i + 1} input width {b.in_dim} "
                f"!= level {i} code width {a.latent}"
            )
    for name in ("alpha", "beta", "gamma"):
        if getattr(spec, name) < 0:
            raise SpecError(f"loss weight {name} must be >= 0, got {getattr(spec, name)}")
    if spec.criterion not in CRITERIA:
        raise SpecError(f"unknown criterion {spec.criterion!r}, expected one of {CRITERIA}")
    if spec.adv_hidden < 0 or spec.cls_hidden < 0:
        raise SpecError("adv_hidden and cls_hidden must be >= 0 (0 = linear head)")


def stacked_spec(in_dim: int, latents, **kwargs) -> StackSpec:
    """A stack of single-layer encoders: in_dim -> latents[0] -> latents[1] ..."""
    dims = [in_dim, *latents]
    levels = tuple(LevelSpec(in_dim=dims[i], latent=dims[i + 1]) for i in range(len(latents)))
    return StackSpec(levels=levels, **kwargs)


def vanilla_spec(in_dim: int, hidden, latent: int, **kwargs) -> StackSpec:
    """The single-level baseline: one encoder with interior hidden layers and
    one adversary acting on the final code only."""
    return StackSpec(levels=(LevelSpec(in_dim=in_dim, latent=latent, hidden=tuple(hidden)),),
                     **kwargs)


# ---------------------------------------------------------------------------
# Levels


def head_dims(in_dim: int, hidden: int) -> list[int]:
    """Dims of a sigmoid head: in_dim -> hidden -> 1, or in_dim -> 1 when hidden is 0."""
    return [in_dim, hidden, 1] if hidden > 0 else [in_dim, 1]


class Level:
    """One trainable level: encoder, mirrored decoder, classifier, adversary."""

    def __init__(self, spec: LevelSpec, criterion: str, adv_hidden: int,
                 cls_hidden: int, rng: np.random.Generator):
        enc_dims = [spec.in_dim, *spec.hidden, spec.latent]
        dec_dims = [spec.latent, *reversed(spec.hidden), spec.in_dim]
        self.criterion = criterion
        self.encoder = MLP(enc_dims, rng)
        self.decoder = MLP(dec_dims, rng)
        self.classifier = MLP(head_dims(spec.latent, cls_hidden), rng,
                              output_activation="sigmoid")
        adv_in = spec.latent + (1 if criterion == "eo" else 0)
        self.adversary = MLP(head_dims(adv_in, adv_hidden), rng,
                             output_activation="sigmoid")

    @property
    def in_dim(self) -> int:
        return self.encoder.in_dim

    @property
    def latent(self) -> int:
        return self.encoder.out_dim


def build(spec: StackSpec, seed: int) -> list[Level]:
    """Freshly initialized levels; deterministic per seed (one rng stream,
    networks created in a fixed order)."""
    rng = np.random.default_rng(seed)
    return [Level(lv, spec.criterion, spec.adv_hidden, spec.cls_hidden, rng)
            for lv in spec.levels]


# ---------------------------------------------------------------------------
# Per-level loss


def adversary_rows(level: Level, y: np.ndarray) -> np.ndarray:
    """Index of the rows the adversary sees: under eopp the y == 1 rows, the
    rows whose TPR gap ``delta_eopp`` measures; otherwise all rows."""
    if level.criterion == "eopp":
        return np.flatnonzero(y == 1)
    return np.arange(y.shape[0])


def adversary_input(level: Level, z: np.ndarray,
                    y: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """The adversary's input rows of the codes ``z`` and their row index.

    The rows are those :func:`adversary_rows` picks; under eo the label column
    is appended. The input is None when no row qualifies.
    """
    idx = adversary_rows(level, y)
    if idx.size == 0:
        return None, idx
    rows = z if idx.size == y.shape[0] else z[idx]
    if level.criterion == "eo":
        rows = np.hstack([rows, y[idx].reshape(-1, 1).astype(float)])
    return rows, idx


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

    Each net that back-propagates gets its own tape, held here for the
    length of the call. With ``alpha == 0`` the decoder's gradient is exactly
    zero: its forward pass still gives the rec value, but it keeps no tape,
    its backward pass is skipped and its ``.grad`` is left alone. Returns the
    rec, cls and adv loss values; adv is None when the criterion subset of
    the batch is empty.
    """
    y = np.asarray(y).reshape(-1)
    s = np.asarray(s).reshape(-1)
    _check_rows(x.shape[0], y, s, "level_grads")
    enc_tape, cls_tape, dec_tape = [], [], ([] if alpha else None)
    z = level.encoder.forward_value(x, enc_tape)
    rec, g_rec = mse(level.decoder.forward_value(z, dec_tape), x, alpha if alpha else None)
    y_hat = level.classifier.forward_value(z, cls_tape)
    y_col = y.reshape(-1, 1).astype(float)
    cls, g_cls = _bce_with_grad(y_hat, y_col, gamma)
    # d(objective)/dz sums the heads in the graph's order: rec, cls, adv
    g_z = level.classifier.backward(cls_tape, g_cls)
    if g_rec is not None:
        g_z = level.decoder.backward(dec_tape, g_rec) + g_z
    rows, idx = adversary_input(level, z, y)
    adv = None
    if rows is not None:
        adv_tape: list = []
        s_hat = level.adversary.forward_value(rows, adv_tape)
        s_col = s[idx].reshape(-1, 1).astype(float)
        adv, g_adv = _bce_with_grad(s_hat, s_col, -beta)
        g_rows = level.adversary.backward(adv_tape, g_adv, param_grads=False)
        if level.criterion == "eo":
            g_rows = g_rows[:, :level.latent]
        if idx.size < y.shape[0]:
            scattered = np.zeros_like(z)
            scattered[idx] += g_rows
            g_rows = scattered
        g_z = g_z + g_rows
    level.encoder.backward(enc_tape, g_z, input_grad=False)
    return rec, cls, adv


# ---------------------------------------------------------------------------
# Encoder-only artifact


@dataclass
class TrainedStack:
    """Encoder weights of a trained stack; nothing else survives training.

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
        return cls(in_dim=levels[0].in_dim if levels else 0, levels=snap,
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
                width = n_out
                W = np.frombuffer(take(8 * n_in * n_out), dtype="<f8").reshape(n_in, n_out).copy()
                b = np.frombuffer(take(8 * n_out), dtype="<f8").reshape(1, n_out).copy()
                if not (np.isfinite(W).all() and np.isfinite(b).all()):
                    raise ModelFormatError(
                        f"non-finite weight or bias in level {i}, layer {j}: {path}")
                layers.append((W, b, act))
            levels.append(layers)
        (prov_len,) = struct.unpack("<I", take(4))
        try:
            provenance = json.loads(take(prov_len).decode())
        except ValueError as exc:
            raise ModelFormatError(f"corrupt provenance block: {exc}") from exc
        if pos != len(data):
            raise ModelFormatError(f"trailing bytes after model data: {path}")
        return cls(in_dim=in_dim, levels=levels, provenance=provenance)
