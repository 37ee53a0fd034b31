"""Alternating min-max training of the stack, one level at a time.

Per batch the main step updates encoder, decoder and classifier to minimize
alpha*L_rec + gamma*L_class - beta*L_adv with the adversary frozen; then the
adversary alone takes ``adv_steps`` minimization steps on BCE(f(z), s) against
the freshly updated (and detached) codes. Levels train sequentially: by
default earlier levels are frozen and their codes precomputed; a fine-tune
mode lets gradients flow into earlier encoders instead.

Both steps run on the explicit kernel of :mod:`nn` (:func:`model.level_grads`
for the main step, :func:`nn.bce_step` for the adversary), with one flat Adam
per side; the adversary steps compute no loss (a non-finite one fails Adam's
check). With alpha == 0 the decoder's gradient is exactly zero, so its
backward pass and Adam update are skipped; it still runs forward, so the
``loss_rec`` column is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, batches
from .metrics import PredictionBatch, evaluate, threshold_predictions
from .model import (Level, StackSpec, TrainedStack, adversary_input, build, encode,
                    level_grads, spec_hash)
from .nn import Adam, bce_step


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss or parameter value, or did not converge."""


@dataclass
class TrainConfig:
    epochs: int = 150
    batch_size: int = 64
    lr: float = 0.01
    lr_adv: float | None = None       # None -> same as lr
    adv_steps: int = 1                # adversary updates per main update
    seed: int = 0
    freeze_previous: bool = True
    adversary_warm_start: bool = False
    eopp_adv_label: int = 0           # adversary subset under eopp: rows with y == this

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.adv_steps < 1:
            raise ValueError(f"adv_steps must be >= 1, got {self.adv_steps}")
        if self.lr <= 0 or (self.lr_adv is not None and self.lr_adv <= 0):
            raise ValueError("learning rates must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.eopp_adv_label not in (0, 1):
            raise ValueError(f"eopp_adv_label must be 0 or 1, got {self.eopp_adv_label}")

    @property
    def adversary_lr(self) -> float:
        return self.lr if self.lr_adv is None else self.lr_adv

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochRecord:
    level: int
    epoch: int
    loss_rec: float
    loss_adv: float       # nan if every batch had an empty adversary subset
    loss_class: float
    adv_acc: float        # adversary accuracy on the validation split (nan if none)
    val_dp: float
    val_eo: float
    val_eopp: float


LOG_COLUMNS = tuple(f.name for f in fields(EpochRecord))


# ---------------------------------------------------------------------------
# Level training


def _adversary_accuracy(level: Level, z_val: np.ndarray, y_val: np.ndarray,
                        s_val: np.ndarray, eopp_label: int) -> float:
    rows, idx = adversary_input(level, z_val, y_val, eopp_label)
    if rows is None:
        return math.nan
    pred = threshold_predictions(level.adversary.forward_value(rows))
    return float((pred == s_val[idx]).mean())


def _classifier_gaps(level: Level, z_val: np.ndarray, y_val: np.ndarray,
                     s_val: np.ndarray) -> tuple[float, float, float]:
    pred = threshold_predictions(level.classifier.forward_value(z_val))
    try:  # an empty group makes every gap undefined
        report = evaluate(PredictionBatch(pred, y_val, s_val))
    except ValueError:
        return math.nan, math.nan, math.nan
    gaps = (report.delta_dp, report.delta_eo, report.delta_eopp)
    return tuple(math.nan if g is None else g for g in gaps)


def _run_level(level: Level, level_index: int, prefix: list[Level],
               X0: np.ndarray, y: np.ndarray, s: np.ndarray,
               alpha: float, beta: float, gamma: float, root_mse: bool,
               cfg: TrainConfig, val: tuple | None) -> list[EpochRecord]:
    """The alternating-update loop for one level; returns one record per epoch.

    ``X0`` is the raw stack input when ``prefix`` is non-empty (fine-tuning:
    batches are forwarded through the earlier encoders, which train too);
    with an empty prefix it is this level's input matrix directly.
    """
    n = X0.shape[0]
    # with alpha == 0 the decoder's Adam update is exactly zero: leave it out
    nets = [level.encoder, level.classifier, *([level.decoder] if alpha else []),
            *(lv.encoder for lv in prefix)]
    adam_main = Adam([p for net in nets for p in net.params()], lr=cfg.lr)
    adam_adv = Adam(level.adversary.params(), lr=cfg.adversary_lr)
    records: list[EpochRecord] = []
    s_col = s.reshape(-1, 1).astype(float)   # the adversary's targets, made once

    for epoch in range(cfg.epochs):
        rec_sum = cls_sum = 0.0
        adv_sum = 0.0
        n_batches = 0
        n_adv_batches = 0
        for b_num, idx in enumerate(batches(n, cfg.batch_size, (cfg.seed, level_index), epoch)):
            where = f"level {level_index}, epoch {epoch}, batch {b_num}"
            try:
                xb = X0[idx]
                yb, sb = y[idx], s[idx]
                # Main step: encoder/decoder/classifier (and unfrozen prefix
                # encoders) descend the signed level objective.
                adam_main.zero_grad()
                rec, cls, adv = level_grads(level, xb, yb, sb, alpha, beta, gamma,
                                            cfg.eopp_adv_label, root_mse, prefix)
                adam_main.step()

                rec_sum += rec
                cls_sum += cls
                n_batches += 1
                if adv is not None:
                    adv_sum += adv
                    n_adv_batches += 1

                # Adversary steps on the updated, detached codes.
                z_now = encode([*prefix, level], xb)
                rows, sub = adversary_input(level, z_now, yb, cfg.eopp_adv_label)
                if rows is not None:
                    target = s_col[idx[sub]]
                    for _ in range(cfg.adv_steps):
                        bce_step(level.adversary, adam_adv, rows, target)
            except FloatingPointError as exc:
                raise DivergenceError(f"non-finite value at {where}: {exc}") from exc

        if val is not None:
            Xv, yv, sv = val
            zv = encode([*prefix, level], Xv)
            adv_acc = _adversary_accuracy(level, zv, yv, sv, cfg.eopp_adv_label)
            dp, eo, eopp = _classifier_gaps(level, zv, yv, sv)
        else:
            adv_acc = dp = eo = eopp = math.nan
        records.append(EpochRecord(
            level=level_index, epoch=epoch,
            loss_rec=rec_sum / max(n_batches, 1),
            loss_adv=adv_sum / n_adv_batches if n_adv_batches else math.nan,
            loss_class=cls_sum / max(n_batches, 1),
            adv_acc=adv_acc, val_dp=dp, val_eo=eo, val_eopp=eopp,
        ))
    return records


def _warm_start_adversary(target: Level, source: Level) -> int:
    """Copy adversary weights layer-wise where shapes match; returns the
    number of layers copied."""
    copied = 0
    for dst, src in zip(target.adversary.layers, source.adversary.layers):
        if dst.weight.value.shape == src.weight.value.shape:
            dst.weight.value[...] = src.weight.value
            dst.bias.value[...] = src.bias.value
            copied += 1
    return copied


def train_stack(spec: StackSpec, train: Dataset, cfg: TrainConfig,
                val: Dataset | None = None) -> tuple[TrainedStack, list[list[EpochRecord]]]:
    """Sequential level-by-level training; returns the encoder-only stack and
    the epoch records of each level, level 0 first.

    With ``cfg.freeze_previous`` (default) each level trains on codes
    precomputed from the already-trained, frozen earlier levels. With it off,
    earlier encoders keep updating inside later levels' main steps.
    """
    levels = build(spec, cfg.seed)
    logs: list[list[EpochRecord]] = []
    val_tuple = None
    for i, level in enumerate(levels):
        if cfg.adversary_warm_start and i > 0:
            _warm_start_adversary(level, levels[i - 1])
        # frozen: train on precomputed codes; fine-tune: forward through the prefix
        upto, prefix = (i, []) if cfg.freeze_previous else (0, levels[:i])
        if val is not None:
            val_tuple = (encode(levels, val.X, upto=upto), val.y, val.s)
        logs.append(_run_level(level, i, prefix, encode(levels, train.X, upto=upto),
                               train.y, train.s, spec.alpha, spec.beta, spec.gamma,
                               spec.root_mse, cfg, val_tuple))
    provenance = {
        "spec": spec.to_dict(),
        "spec_hash": spec_hash(spec),
        "seed": cfg.seed,
        "train_config": cfg.to_dict(),
        "dataset": train.summary(),
    }
    return TrainedStack.from_levels(levels, provenance), logs
