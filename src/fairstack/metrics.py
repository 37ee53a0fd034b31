"""Group fairness gaps of a binary predictor: statistical parity (delta_dp),
equalized odds (delta_eo), equal opportunity (delta_eopp), plus accuracy.

All metrics are computed once, by :func:`evaluate`, from empirical
frequencies of a :class:`PredictionBatch`. A gap is *undefined*, None in the
report, when one of its conditioning cells is empty (the report's rate for
that cell is None too); silently returning 0 would fake fairness. An empty
group leaves no gap defined and raises :class:`UndefinedMetricError`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np


class UndefinedMetricError(ValueError):
    """A batch has an empty sensitive group, so no gap is defined on it."""


def _binary_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not ((arr == 0) | (arr == 1)).all():   # the values as given: 0.5 is not 0
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class PredictionBatch:
    """Hard predictions, ground-truth labels and sensitive attribute."""

    y_pred: np.ndarray
    y_true: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_pred", _binary_vector(self.y_pred, "y_pred"))
        object.__setattr__(self, "y_true", _binary_vector(self.y_true, "y_true"))
        object.__setattr__(self, "s", _binary_vector(self.s, "s"))
        if not (len(self.y_pred) == len(self.y_true) == len(self.s)):
            raise ValueError(
                f"length mismatch: y_pred={len(self.y_pred)} "
                f"y_true={len(self.y_true)} s={len(self.s)}"
            )


def threshold_predictions(probs) -> np.ndarray:
    """Turn probabilistic outputs into hard 0/1 labels (>= 0.5 -> 1)."""
    return (np.asarray(probs).reshape(-1) >= 0.5).astype(np.int64)


@dataclass
class FairnessReport:
    """Accuracy plus the three gaps with the per-group rates behind them.

    Gap fields are None when undefined on the evaluated batch.
    """

    accuracy: float
    delta_dp: float | None
    delta_eo: float | None
    delta_eopp: float | None
    tpr_s0: float | None
    tpr_s1: float | None
    fpr_s0: float | None
    fpr_s1: float | None
    pos_rate_s0: float
    pos_rate_s1: float
    n_s0: int
    n_s1: int

    def to_json(self) -> dict:
        return asdict(self)


EO_MODES = ("sum", "max")


def evaluate(batch: PredictionBatch, eo_mode: str = "sum") -> FairnessReport:
    """All metrics from one pass; undefined gaps become explicit None fields.
    delta_eo is |TPR0-TPR1| + |FPR0-FPR1| in [0, 2] with ``eo_mode="sum"``,
    the larger of the two with ``"max"``."""
    if eo_mode not in EO_MODES:
        raise ValueError(f"eo_mode must be one of {EO_MODES}, got {eo_mode!r}")
    # c[4*s + 2*y_true + y_pred]: the row count of each (s, y_true, y_pred) cell
    c = np.bincount(4 * batch.s + 2 * batch.y_true + batch.y_pred, minlength=8).tolist()
    n, pos_rate, tpr, fpr = [], [], [], []
    for g in (0, 1):
        tn, fp, fn, tp = c[4 * g:4 * g + 4]
        n.append(tn + fp + fn + tp)
        if n[g] == 0:
            raise UndefinedMetricError(f"group s={g} is empty")
        pos_rate.append((fp + tp) / n[g])
        tpr.append(tp / (fn + tp) if fn + tp else None)   # None: no y=1 rows
        fpr.append(fp / (tn + fp) if tn + fp else None)   # None: no y=0 rows
    dp = abs(pos_rate[0] - pos_rate[1])
    eopp = abs(tpr[0] - tpr[1]) if None not in tpr else None
    eo = None
    if eopp is not None and None not in fpr:
        fpr_gap = abs(fpr[0] - fpr[1])
        eo = eopp + fpr_gap if eo_mode == "sum" else max(eopp, fpr_gap)
    return FairnessReport(
        accuracy=(c[0] + c[3] + c[4] + c[7]) / sum(n),   # tn + tp of both groups
        delta_dp=dp,
        delta_eo=eo,
        delta_eopp=eopp,
        tpr_s0=tpr[0], tpr_s1=tpr[1],
        fpr_s0=fpr[0], fpr_s1=fpr[1],
        pos_rate_s0=pos_rate[0], pos_rate_s1=pos_rate[1],
        n_s0=n[0], n_s1=n[1],
    )
