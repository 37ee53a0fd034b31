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


@dataclass
class GroupRates:
    n: int
    pos_rate: float          # P(y_pred=1) within the group
    n_y1: int
    n_y0: int
    tpr: float | None        # None when the group has no y=1 samples
    fpr: float | None        # None when the group has no y=0 samples


def threshold_predictions(probs, thr: float = 0.5) -> np.ndarray:
    """Turn probabilistic outputs into hard 0/1 labels (>= thr -> 1)."""
    return (np.asarray(probs).reshape(-1) >= thr).astype(np.int64)


def group_rates(batch: PredictionBatch, group: int) -> GroupRates:
    mask = batch.s == group
    n = int(mask.sum())
    if n == 0:
        raise UndefinedMetricError(f"group s={group} is empty")
    yp = batch.y_pred[mask]
    yt = batch.y_true[mask]
    n_y1 = int((yt == 1).sum())
    n_y0 = n - n_y1
    tpr = float((yp[yt == 1] == 1).mean()) if n_y1 else None
    fpr = float((yp[yt == 0] == 1).mean()) if n_y0 else None
    return GroupRates(n=n, pos_rate=float((yp == 1).mean()), n_y1=n_y1, n_y0=n_y0,
                      tpr=tpr, fpr=fpr)


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
    r0 = group_rates(batch, 0)
    r1 = group_rates(batch, 1)
    dp = abs(r0.pos_rate - r1.pos_rate)
    eopp = abs(r0.tpr - r1.tpr) if (r0.tpr is not None and r1.tpr is not None) else None
    eo = None
    if eopp is not None and r0.fpr is not None and r1.fpr is not None:
        fpr_gap = abs(r0.fpr - r1.fpr)
        eo = eopp + fpr_gap if eo_mode == "sum" else max(eopp, fpr_gap)
    return FairnessReport(
        accuracy=accuracy(batch),
        delta_dp=dp,
        delta_eo=eo,
        delta_eopp=eopp,
        tpr_s0=r0.tpr, tpr_s1=r1.tpr,
        fpr_s0=r0.fpr, fpr_s1=r1.fpr,
        pos_rate_s0=r0.pos_rate, pos_rate_s1=r1.pos_rate,
        n_s0=r0.n, n_s1=r1.n,
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
