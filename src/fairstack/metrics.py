"""Group fairness gaps of a binary predictor: statistical parity (delta_dp),
equalized odds (delta_eo), equal opportunity (delta_eopp), plus accuracy.

All metrics are computed once, by :func:`evaluate`, from empirical
frequencies of a :class:`PredictionBatch`; ``delta_dp`` and the others return
one field of its report. A gap is *undefined* (None in the report; the
single-gap functions raise :class:`UndefinedMetricError`) when one of its
conditioning cells is empty; silently returning 0 would fake fairness.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np


class UndefinedMetricError(ValueError):
    """A fairness gap was requested on a batch missing a conditioning cell."""


def _binary_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isin(arr, (0, 1)).all():   # the values as given: 0.5 is not 0
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

    def __len__(self) -> int:
        return len(self.y_pred)


def threshold_predictions(probs, thr: float = 0.5) -> np.ndarray:
    """Turn probabilistic outputs into hard 0/1 labels (>= thr -> 1)."""
    return (np.asarray(probs).reshape(-1) >= thr).astype(np.int64)


def accuracy(batch: PredictionBatch) -> float:
    return float((batch.y_pred == batch.y_true).mean())


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
    n, pos_rate, tpr, fpr = [], [], [], []
    for g in (0, 1):
        mask = batch.s == g
        n.append(int(mask.sum()))
        if n[g] == 0:
            raise UndefinedMetricError(f"group s={g} is empty")
        yp, yt = batch.y_pred[mask], batch.y_true[mask]
        n_y1 = int((yt == 1).sum())
        pos_rate.append(float((yp == 1).mean()))
        tpr.append(float((yp[yt == 1] == 1).mean()) if n_y1 else None)    # None: no y=1 rows
        fpr.append(float((yp[yt == 0] == 1).mean()) if n[g] - n_y1 else None)  # no y=0 rows
    dp = abs(pos_rate[0] - pos_rate[1])
    eopp = abs(tpr[0] - tpr[1]) if None not in tpr else None
    eo = None
    if eopp is not None and None not in fpr:
        fpr_gap = abs(fpr[0] - fpr[1])
        eo = eopp + fpr_gap if eo_mode == "sum" else max(eopp, fpr_gap)
    return FairnessReport(
        accuracy=accuracy(batch),
        delta_dp=dp,
        delta_eo=eo,
        delta_eopp=eopp,
        tpr_s0=tpr[0], tpr_s1=tpr[1],
        fpr_s0=fpr[0], fpr_s1=fpr[1],
        pos_rate_s0=pos_rate[0], pos_rate_s1=pos_rate[1],
        n_s0=n[0], n_s1=n[1],
    )


def _defined(report: FairnessReport, gap: str, rates: tuple[str, ...]) -> float:
    """The report's ``gap``, or UndefinedMetricError naming the first empty
    cell it needs: group 0 first, ``rates`` ("tpr": y=1, "fpr": y=0) in order."""
    for g in (0, 1):
        for rate in rates:
            if getattr(report, f"{rate}_s{g}") is None:
                raise UndefinedMetricError(f"cell (s={g}, y={int(rate == 'tpr')}) is empty")
    return getattr(report, gap)


def delta_dp(batch: PredictionBatch) -> float:
    """|P(y_pred=1 | s=0) - P(y_pred=1 | s=1)|: the report's ``delta_dp``."""
    return evaluate(batch).delta_dp


def delta_eo(batch: PredictionBatch, mode: str = "sum") -> float:
    """Equalized-odds gap, its two halves combined by ``mode``: the report's ``delta_eo``."""
    return _defined(evaluate(batch, eo_mode=mode), "delta_eo", ("tpr", "fpr"))


def delta_eopp(batch: PredictionBatch) -> float:
    """|TPR0 - TPR1|, the y=1 half of equalized odds: the report's ``delta_eopp``."""
    return _defined(evaluate(batch), "delta_eopp", ("tpr",))
