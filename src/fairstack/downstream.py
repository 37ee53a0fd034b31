"""Downstream evaluation of learned representations.

Three independent predictors score a frozen encoding: a one-hidden-layer MLP
probe (plain BCE, no fairness terms, minibatch Adam on the explicit kernel of
:mod:`nn` at the fixed ``PROBE_*`` settings), logistic regression (solved to
its ridge-regularized optimum by Newton's method at the fixed ``LOGREG_*``
settings), and a random forest. A fitted probe or logistic regression is a
:class:`TrainedStack` whose code is one logit: it predicts 1 where the logit
is >= 0.
``cross_validate`` runs the k-fold protocol — encode, fit on the train fold,
report fairness metrics on the test fold — and aggregates mean and sample
standard deviation per metric.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _bounded, _check, _check_fields, _fit_input, batches, make_folds
from .forest import ForestSpec, train_forest
from .metrics import PredictionBatch, evaluate
from .model import TrainedStack, head_dims
from .nn import MLP, Adam, bce_step, sigmoid
from .training import DivergenceError


PROBE_LR = 0.01
PROBE_BATCH = 64
LOGREG_RIDGE = 1e-6
LOGREG_TOL = 1e-10
LOGREG_MAX_STEPS = 50


@dataclass(frozen=True)
class ProbeSpec:
    """Probe width, epochs and seed; every probe trains with Adam at
    ``PROBE_LR`` on minibatches of ``PROBE_BATCH`` rows. Each field is
    checked against its type and bound when the spec is made."""
    hidden: int = _bounded(20, min=0)   # 0: linear
    epochs: int = _bounded(100, min=1)
    seed: int = _bounded(0, min=0)

    def __post_init__(self):
        _check_fields(self)


def train_probe(stack: TrainedStack, X: np.ndarray, y: np.ndarray,
                spec: ProbeSpec | None = None) -> TrainedStack:
    """Label probe on frozen encodings: encode X, fit a hidden->logit MLP
    with plain BCE, minibatch Adam. The stack is only ever read; the fitted
    probe is its levels, then the head as one more level, so it reads raw rows."""
    spec = spec or ProbeSpec()
    X, y = _fit_input(X, y)
    z = stack.encode(X)
    mlp = MLP(head_dims(z.shape[1], spec.hidden), np.random.default_rng(spec.seed))
    opt = Adam(mlp.params(), lr=PROBE_LR)
    target = y.reshape(-1, 1).astype(float)
    try:
        for epoch in range(spec.epochs):
            for idx in batches(z.shape[0], PROBE_BATCH, spec.seed, epoch):
                bce_step(mlp, opt, z[idx], target[idx])
    except FloatingPointError as exc:
        raise DivergenceError(f"non-finite value in probe epoch {epoch}: {exc}") from exc
    return TrainedStack(stack.in_dim, [*stack.levels, mlp.triples()])


def train_logreg(features: np.ndarray, y: np.ndarray) -> TrainedStack:
    """Logistic regression = one dense layer to a logit, at the minimum of
    mean BCE plus ``LOGREG_RIDGE / 2`` (1e-6 / 2) times the squared norm of
    the weights and the bias. Newton (IRLS) steps from zero on the
    bias-augmented design X~, with p = sigmoid(X~ w), solve
    ``(X~' diag(p(1-p)) X~ / n + ridge I) delta = X~'(p - y) / n + ridge w``
    and take ``w -= delta``, until the Newton decrement ``g' delta`` is below
    ``LOGREG_TOL`` (1e-10). The ridge keeps the system positive definite, so
    separable data and dead or duplicated columns have a finite optimum.
    Raises :class:`DivergenceError` on a non-finite value, or if the
    tolerance is not met within ``LOGREG_MAX_STEPS`` (50) steps."""
    X, y = _fit_input(features, y)
    n, d = X.shape
    w = np.zeros(d + 1)        # the weights, then the bias
    H = np.empty((d + 1, d + 1))
    g = np.empty(d + 1)
    try:
        # exp(-|z|) underflows on well-separated rows; that is no error
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for step in range(LOGREG_MAX_STEPS):
                p = sigmoid(X @ w[:d] + w[d])
                h = p * (1.0 - p) / n
                # the bias column enters as the Hessian's last row and column,
                # so no augmented copy of X is made
                H[:d, :d] = X.T @ (X * h[:, None])
                H[:d, d] = H[d, :d] = h @ X
                H[d, d] = h.sum()
                H.flat[::d + 2] += LOGREG_RIDGE
                r = (p - y) / n
                g[:d] = r @ X
                g[d] = r.sum()
                g += LOGREG_RIDGE * w
                delta = np.linalg.solve(H, g)
                w -= delta
                decrement = float(g @ delta)
                if not np.isfinite(decrement):
                    raise FloatingPointError(f"non-finite Newton decrement at step {step}")
                if decrement < LOGREG_TOL:
                    break
            else:
                raise DivergenceError(
                    f"logistic regression did not converge in {LOGREG_MAX_STEPS} Newton "
                    f"steps: decrement {decrement:.3g} >= {LOGREG_TOL:g}")
    except FloatingPointError as exc:
        raise DivergenceError(f"non-finite value in logistic regression: {exc}") from exc
    return TrainedStack(d, [[(w[:d].reshape(d, 1), w[d:].reshape(1, 1), "identity")]])


# ---------------------------------------------------------------------------
# Cross-validated fairness evaluation

MODEL_KINDS = ("logreg", "forest", "probe")


@dataclass
class CVResult:
    """Per-metric mean and sample std over the folds; ``meta`` holds k and the seed."""
    mean: dict
    std: dict
    meta: dict


def aggregate_metrics(dicts: list[dict]) -> tuple[dict, dict]:
    """Per-metric mean and sample std (ddof=1) over dicts with the keys of the
    first; a metric undefined (None) in any dict aggregates to None rather
    than a quietly-filtered number."""
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


def _fit_kind(kind: str, z_train: np.ndarray, y_train: np.ndarray,
              probe_spec: ProbeSpec | None, forest_spec: ForestSpec | None):
    """Fit one model of ``kind``, which :func:`cross_validate` has checked."""
    if kind == "logreg":
        return train_logreg(z_train, y_train)
    if kind == "forest":
        return train_forest(z_train, y_train, forest_spec)
    return train_probe(TrainedStack.identity(z_train.shape[1]), z_train, y_train, probe_spec)


def cross_validate(model_kind: str, stack: TrainedStack, dataset: Dataset,
                   k: int = 5, seed: int = 0, eo_mode: str = "sum",
                   probe_spec: ProbeSpec | None = None,
                   forest_spec: ForestSpec | None = None) -> CVResult:
    """k-fold protocol: encode with the given (frozen) stack, fit the
    downstream model on each train fold, report fairness on the test fold.

    The sensitive column is never part of the model input; it enters only
    the evaluation. ``seed`` seeds the folds, which callers that compare
    encodings share by passing the same seed. Each fold's model is fitted
    with the spec it is given, so the forest's or the probe's own seed seeds
    that model (a spec left None is the default, seed 0).
    """
    _check(model_kind, "model_kind", str, choices=MODEL_KINDS)
    z = stack.encode(dataset.X)
    reports = []
    for train_idx, test_idx in make_folds(dataset.n, k, seed):
        predictor = _fit_kind(model_kind, z[train_idx], dataset.y[train_idx],
                              probe_spec, forest_spec)
        pred = predictor.predict(z[test_idx])
        batch = PredictionBatch(pred, dataset.y[test_idx], dataset.s[test_idx])
        reports.append(evaluate(batch, eo_mode=eo_mode).to_json())
    mean, std = aggregate_metrics(reports)
    return CVResult(mean=mean, std=std, meta={"k": k, "seed": seed})
