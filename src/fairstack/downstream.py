"""Downstream evaluation of learned representations.

Three independent predictors score a frozen encoding: a one-hidden-layer MLP
probe, logistic regression (both trained with plain BCE, no fairness terms,
on the explicit kernel of :mod:`nn`), and a random forest.
``cross_validate`` runs the k-fold protocol — encode, fit on the train fold,
report fairness metrics on the test fold — and aggregates mean and sample
standard deviation per metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, batches, make_folds, fold_train_indices
from .forest import ForestSpec, _fit_input, train_forest
from .metrics import FairnessReport, PredictionBatch, evaluate, threshold_predictions
from .model import TrainedStack, head_dims
from .nn import MLP, Adam, bce, bce_step
from .training import DivergenceError


PROBE_LR = 0.01
PROBE_BATCH = 64


@dataclass
class ProbeSpec:
    """Probe width, epochs and seed; every probe trains with Adam at
    ``PROBE_LR`` on minibatches of ``PROBE_BATCH`` rows."""
    hidden: int = 20
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 0:
            raise ValueError(f"hidden must be >= 0 (0 = linear), got {self.hidden}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


class MLPPredictor:
    """Thresholded sigmoid-MLP predictor, optionally behind a frozen encoder."""

    def __init__(self, mlp: MLP, stack: TrainedStack | None = None):
        self.mlp = mlp
        self.stack = stack

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.stack is not None:
            X = self.stack.encode(X)
        return self.mlp.forward_value(X).reshape(-1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return threshold_predictions(self.predict_proba(X))


def train_probe(stack: TrainedStack, X: np.ndarray, y: np.ndarray,
                spec: ProbeSpec | None = None) -> MLPPredictor:
    """Label probe on frozen encodings: encode X, fit hidden->sigmoid MLP
    with plain BCE, minibatch Adam. The stack is only ever read."""
    spec = spec or ProbeSpec()
    X, y = _fit_input(X, y)
    z = stack.encode(X)
    mlp = MLP(head_dims(z.shape[1], spec.hidden), np.random.default_rng(spec.seed),
              output_activation="sigmoid")
    opt = Adam(mlp.params(), lr=PROBE_LR)
    target = y.reshape(-1, 1).astype(float)
    try:
        for epoch in range(spec.epochs):
            for idx in batches(z.shape[0], PROBE_BATCH, spec.seed, epoch):
                bce_step(mlp, opt, z[idx], target[idx])
    except FloatingPointError as exc:
        raise DivergenceError(f"non-finite value in probe epoch {epoch}: {exc}") from exc
    return MLPPredictor(mlp, stack=stack)


def train_logreg(features: np.ndarray, y: np.ndarray, seed: int = 0,
                 epochs: int = 500, lr: float = 0.05) -> MLPPredictor:
    """Logistic regression = single dense layer + sigmoid, full-batch Adam on
    BCE. Raises :class:`DivergenceError` on a non-finite value or if the loss
    before the last step is not below the loss before the first."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    X, y = _fit_input(features, y)
    mlp = MLP([X.shape[1], 1], np.random.default_rng(seed), output_activation="sigmoid")
    opt = Adam(mlp.params(), lr=lr)
    target = y.reshape(-1, 1).astype(float)
    try:
        first = bce(mlp.forward_value(X), target)
        for _ in range(epochs - 1):
            bce_step(mlp, opt, X, target)
        last = bce(mlp.forward_value(X), target)
        bce_step(mlp, opt, X, target)
    except FloatingPointError as exc:
        raise DivergenceError(f"non-finite value in logistic regression: {exc}") from exc
    if last >= first:
        raise DivergenceError(
            f"logistic regression failed to converge: loss {first:.6f} -> {last:.6f}")
    return MLPPredictor(mlp)


# ---------------------------------------------------------------------------
# Cross-validated fairness evaluation

MODEL_KINDS = ("logreg", "forest", "probe")


@dataclass
class CVResult:
    model_kind: str
    reports: list[FairnessReport]
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def aggregate_reports(reports: list[FairnessReport]) -> tuple[dict, dict]:
    """Per-metric mean and sample std (ddof=1); a metric undefined on any
    fold aggregates to None rather than a quietly-filtered number."""
    dicts = [r.to_json() for r in reports]
    mean: dict = {}
    std: dict = {}
    for key in dicts[0]:
        vals = [d[key] for d in dicts]
        if any(v is None for v in vals):
            mean[key] = None
            std[key] = None
            continue
        arr = np.asarray(vals, dtype=np.float64)
        mean[key] = float(arr.mean())
        std[key] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _fit_kind(kind: str, z_train: np.ndarray, y_train: np.ndarray, seed: int,
              probe_spec: ProbeSpec | None, forest_spec: ForestSpec | None):
    """Fit one model of ``kind``, which :func:`cross_validate` has checked."""
    if kind == "logreg":
        return train_logreg(z_train, y_train, seed=seed)
    if kind == "forest":
        return train_forest(z_train, y_train, replace(forest_spec or ForestSpec(), seed=seed))
    return train_probe(TrainedStack.identity(z_train.shape[1]), z_train, y_train,
                       replace(probe_spec or ProbeSpec(), seed=seed))


def cross_validate(model_kind: str, stack: TrainedStack, dataset: Dataset,
                   k: int = 5, seed: int = 0, eo_mode: str = "sum",
                   probe_spec: ProbeSpec | None = None,
                   forest_spec: ForestSpec | None = None) -> CVResult:
    """k-fold protocol: encode with the given (frozen) stack, fit the
    downstream model on each train fold, report fairness on the test fold.

    The sensitive column is never part of the model input; it enters only
    the evaluation. Folds are seeded and shared by callers that compare
    encodings (pass the same seed).
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}, expected one of {MODEL_KINDS}")
    z = stack.encode(dataset.X)
    folds = make_folds(dataset.n, k, seed)
    reports: list[FairnessReport] = []
    for fold, test_idx in enumerate(folds):
        train_idx = fold_train_indices(folds, fold)
        predictor = _fit_kind(model_kind, z[train_idx], dataset.y[train_idx],
                              seed, probe_spec, forest_spec)
        pred = predictor.predict(z[test_idx])
        batch = PredictionBatch(pred, dataset.y[test_idx], dataset.s[test_idx])
        reports.append(evaluate(batch, eo_mode=eo_mode))
    mean, std = aggregate_reports(reports)
    return CVResult(
        model_kind=model_kind, reports=reports, mean=mean, std=std,
        meta={"k": k, "seed": seed},
    )
