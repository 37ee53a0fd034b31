"""Random forest for binary labels, built on CART with Gini impurity.

Trees grow greedily: at each node a fresh random subset of ceil(sqrt(d))
features is drawn, the best boundary (midpoint between consecutive distinct
sorted values) is chosen by weighted child Gini, and splitting continues
while the node is impure and large enough. Zero-gain splits are allowed;
greedy Gini needs them to express XOR-like concepts. Bagging draws one
bootstrap sample per tree from a per-tree seeded stream, and the forest
predicts by strict-majority vote (ties go to class 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = None      # None = grow until pure/too small
    min_samples_split: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")


def gini(y: np.ndarray) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of a 0/1 label vector."""
    if y.size == 0:
        return 0.0
    p = y.mean()
    return float(1.0 - p * p - (1.0 - p) * (1.0 - p))


def _best_split(Xf: np.ndarray, y: np.ndarray):
    """Best boundary over the given feature columns.

    Returns (column-index-within-Xf, threshold, weighted-child-impurity) or
    None when no column has two distinct values. Candidate thresholds are
    midpoints between consecutive distinct sorted values; the weighted
    impurity of all candidates is computed per column via prefix sums and
    minimized jointly (ties: lowest boundary position, then first column).
    """
    n = Xf.shape[0]
    if n < 2:
        return None
    order = np.argsort(Xf, axis=0, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=0)
    ys = y[order]
    pos = np.cumsum(ys, axis=0, dtype=np.float64)
    total_pos = pos[-1]

    nl = np.arange(1, n, dtype=np.float64).reshape(-1, 1)
    nr = float(n) - nl
    pl = pos[:-1]
    pr = total_pos - pl
    gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
    gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
    weighted = (nl * gini_l + nr * gini_r) / n
    weighted[xs[1:] == xs[:-1]] = np.inf   # not a boundary between distinct values

    flat = int(np.argmin(weighted))
    i, j = divmod(flat, weighted.shape[1])
    if not np.isfinite(weighted[i, j]):
        return None
    return j, float((xs[i, j] + xs[i + 1, j]) / 2.0), float(weighted[i, j])


class DecisionTree:
    """One CART tree stored as flat node arrays (feature -1 marks a leaf)."""

    def __init__(self, spec: ForestSpec, rng: np.random.Generator):
        self.spec = spec
        self._rng = rng
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        n, d = X.shape
        m = math.ceil(math.sqrt(d))
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[int] = []

        def new_node() -> int:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0)
            return len(feature) - 1

        stack = [(new_node(), np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            yn = y[idx]
            n_pos = int(yn.sum())
            value[node] = 1 if 2 * n_pos > idx.size else 0   # majority, tie -> 0
            pure = n_pos == 0 or n_pos == idx.size
            depth_ok = self.spec.max_depth is None or depth < self.spec.max_depth
            if pure or idx.size < self.spec.min_samples_split or not depth_ok:
                continue
            feats = self._rng.choice(d, size=m, replace=False)
            found = _best_split(X[np.ix_(idx, feats)], yn)
            if found is None:
                continue
            j, thr, _ = found
            f = int(feats[j])
            go_left = X[idx, f] <= thr
            feature[node] = f
            threshold[node] = thr
            left[node] = new_node()
            right[node] = new_node()
            stack.append((right[node], idx[~go_left], depth + 1))
            stack.append((left[node], idx[go_left], depth + 1))

        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=np.int64)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        cur = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            f = self.feature[cur]
            rows = np.nonzero(f >= 0)[0]
            if rows.size == 0:
                return self.value[cur]
            go_left = X[rows, f[rows]] <= self.threshold[cur[rows]]
            cur[rows] = np.where(go_left, self.left[cur[rows]], self.right[cur[rows]])


class RandomForest:
    """Bagged trees; ``predict`` is a strict-majority vote over trees."""

    def __init__(self, spec: ForestSpec):
        self.spec = spec
        self.trees: list[DecisionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).reshape(-1).astype(np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(f"X {X.shape} and y {y.shape} do not align")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        n = X.shape[0]
        self.trees = []
        for t in range(self.spec.n_trees):
            rng = np.random.default_rng([self.spec.seed, t])
            boot = rng.integers(0, n, size=n)
            self.trees.append(DecisionTree(self.spec, rng).fit(X[boot], y[boot]))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self.predict_proba(X) * len(self.trees)
        return (2.0 * votes > len(self.trees)).astype(np.int64)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.predict(X)


def train_forest(features: np.ndarray, y: np.ndarray, spec: ForestSpec | None = None) -> RandomForest:
    return RandomForest(spec or ForestSpec()).fit(features, y)
