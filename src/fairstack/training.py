"""Alternating min-max training of the stack, one level at a time.

Per batch the main step updates encoder, decoder and classifier to minimize
alpha*L_rec + gamma*L_class - beta*L_adv with the adversary frozen; then the
adversary alone takes one adversary step, at the same learning rate, on
the BCE of its logits f(z) against s, on the freshly updated (and detached)
codes. Every BCE is taken on a head's logits, and a head predicts 1 on the
val split where its logit is >= 0. In both steps the adversary sees the rows
:func:`model.adversary_input` picks, and ``s`` at their index: ``slice(None)``
under dp and eo, the y == 1 positions under eopp. Levels train sequentially,
each on the codes of the frozen level before it, computed once by that level's encoder.

Both steps run on the explicit kernel of :mod:`nn` (:func:`model.level_grads`
for the main step, :func:`nn.bce_step` for the adversary), with one flat Adam
per side; the adversary step computes no loss (a non-finite one fails Adam's
check). With alpha == 0 the decoder's gradient is exactly zero, so its
backward pass and Adam update are skipped; it still runs forward, so the
``loss_rec`` column is unchanged.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, _binary_vector, _bounded, _check_fields, _fit_input, batches
from .metrics import PredictionBatch, UndefinedMetricError, evaluate, threshold_predictions
from .model import Level, StackSpec, TrainedStack, adversary_input, build, level_grads, spec_hash
from .nn import Adam, DimensionError, bce_step


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss or parameter value, or did not converge."""


@dataclass(frozen=True)
class TrainConfig:
    """Each field is checked against its type and bound when the config is made."""
    epochs: int = _bounded(150, min=1)
    batch_size: int = _bounded(64, min=1)
    lr: float = _bounded(0.01, min=1e-12)   # both sides: the main step and the adversary step
    seed: int = _bounded(0, min=0)

    def __post_init__(self):
        _check_fields(self)

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
                        s_val: np.ndarray) -> float:
    rows, idx = adversary_input(level, z_val, y_val.reshape(-1, 1).astype(float))
    if rows is None:
        return math.nan
    pred = threshold_predictions(level.adversary.forward_value(rows))
    return float((pred == s_val[idx]).mean())


def _classifier_gaps(level: Level, z_val: np.ndarray, y_val: np.ndarray,
                     s_val: np.ndarray, eo_mode: str) -> tuple[float, float, float]:
    pred = threshold_predictions(level.classifier.forward_value(z_val))
    try:  # an empty group makes every gap undefined
        report = evaluate(PredictionBatch(pred, y_val, s_val), eo_mode=eo_mode)
    except UndefinedMetricError:
        return math.nan, math.nan, math.nan
    gaps = (report.delta_dp, report.delta_eo, report.delta_eopp)
    return tuple(math.nan if g is None else g for g in gaps)


def _run_level(level: Level, level_index: int, X: np.ndarray, y: np.ndarray,
               s: np.ndarray, alpha: float, beta: float, gamma: float,
               cfg: TrainConfig, val: tuple | None, eo_mode: str) -> list[EpochRecord]:
    """The alternating-update loop for one level on its input matrix ``X``;
    returns one record per epoch, its val gaps scored with ``eo_mode``."""
    n = X.shape[0]
    # with alpha == 0 the decoder's Adam update is exactly zero: leave it out
    nets = [level.encoder, level.classifier, *([level.decoder] if alpha else [])]
    adam_main = Adam([p for net in nets for p in net.params()], lr=cfg.lr)
    adam_adv = Adam(level.adversary.params(), lr=cfg.lr)
    records: list[EpochRecord] = []
    # the targets as float columns, made once; a batch gathers its rows
    y_col, s_col = y.reshape(-1, 1).astype(float), s.reshape(-1, 1).astype(float)

    for epoch in range(cfg.epochs):
        rec_sum = cls_sum = 0.0
        adv_sum = 0.0
        n_batches = 0
        n_adv_batches = 0
        for b_num, idx in enumerate(batches(n, cfg.batch_size, (cfg.seed, level_index), epoch)):
            try:
                xb, yb, sb = X.take(idx, axis=0), y_col.take(idx, axis=0), s_col.take(idx, axis=0)
                # Main step: encoder/decoder/classifier descend the signed
                # level objective.
                adam_main.zero_grad()
                rec, cls, adv = level_grads(level, xb, yb, sb, alpha, beta, gamma)
                adam_main.step()

                rec_sum += rec
                cls_sum += cls
                n_batches += 1
                if adv is not None:
                    adv_sum += adv
                    n_adv_batches += 1

                # Adversary step on the updated, detached codes.
                rows, sub = adversary_input(level, level.encoder.forward_value(xb), yb)
                if rows is not None:
                    bce_step(level.adversary, adam_adv, rows, sb[sub])
            except FloatingPointError as exc:
                raise DivergenceError(f"non-finite value at level {level_index}, epoch {epoch}, "
                                      f"batch {b_num}: {exc}") from exc

        if val is not None:
            Xv, yv, sv = val
            zv = level.encoder.forward_value(Xv)
            adv_acc = _adversary_accuracy(level, zv, yv, sv)
            dp, eo, eopp = _classifier_gaps(level, zv, yv, sv, eo_mode)
        else:
            adv_acc = dp = eo = eopp = math.nan
        records.append(EpochRecord(
            level=level_index, epoch=epoch,
            loss_rec=rec_sum / n_batches,
            loss_adv=adv_sum / n_adv_batches if n_adv_batches else math.nan,
            loss_class=cls_sum / n_batches,
            adv_acc=adv_acc, val_dp=dp, val_eo=eo, val_eopp=eopp,
        ))
    return records


def train_stack(spec: StackSpec, train: Dataset, cfg: TrainConfig,
                val: Dataset | None = None,
                eo_mode: str = "sum") -> tuple[TrainedStack, list[list[EpochRecord]]]:
    """Sequential level-by-level training; returns the encoder-only stack and
    the epoch records of each level, level 0 first. ``eo_mode`` combines the
    two eo gaps of the records' ``val_eo``, as :func:`metrics.evaluate` does.

    Each level trains on the codes of the trained, frozen level before it.
    ``train`` and ``val`` need a row, finite features and 0/1 ``y`` and ``s``.
    """
    for ds in (train,) if val is None else (train, val):
        if ds.d != spec.in_dim:
            raise DimensionError(f"train_stack: expected input width {spec.in_dim}, got {ds.d}")
        _fit_input(ds.X, ds.y)
        _binary_vector(ds.s, "train_stack: the sensitive column s")
    levels = build(spec, cfg.seed)
    logs: list[list[EpochRecord]] = []
    X, Xv = train.X, None if val is None else val.X
    for i, level in enumerate(levels):
        if i:  # the previous level is trained: its codes are this level's input
            X = levels[i - 1].encoder.forward_value(X)
            Xv = None if Xv is None else levels[i - 1].encoder.forward_value(Xv)
        logs.append(_run_level(level, i, X, train.y, train.s, spec.alpha, spec.beta,
                               spec.gamma, cfg, None if val is None else (Xv, val.y, val.s),
                               eo_mode))
    provenance = {
        "spec": spec.to_dict(),
        "spec_hash": spec_hash(spec),
        "train_config": cfg.to_dict(),
        "dataset": train.summary(),
    }
    return TrainedStack.from_levels(levels, provenance), logs
