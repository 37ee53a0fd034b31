"""Random forest for binary labels, built on CART with Gini impurity.

Trees grow greedily, level by level. At each depth every node that is impure,
large enough and above ``max_depth`` draws a fresh random subset of
ceil(sqrt(d)) features from the tree's stream, node by node in breadth-first
order (the ``Generator.choice`` stream, read by one call per depth), and all
of them are searched in one vectorized pass for
the boundary (midpoint between consecutive distinct values, or the lower
value where the midpoint rounds up to the upper) of least weighted child
Gini. Node ids are breadth-first. Zero-gain splits are allowed; greedy
Gini needs them to express XOR-like concepts. Each tree's bootstrap sample,
drawn from a per-tree seeded stream, is kept as counts on the original rows:
CART on counts splits exactly as CART on the duplicated rows, and X is ranked
once per forest instead of copied per tree (at most MAX_ROWS = 2**21 rows).
The forest predicts by strict-majority vote (ties go to class 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ROWS = 2 ** 21   # keeps the packed int64 sort values of _best_splits below 2**63


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


def _fit_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as a float matrix and y as int64 labels, refused unless they align,
    X has a row and a column and is finite, and y holds only 0 and 1. Every
    downstream predictor (forest, logreg, probe) checks its input here."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"X {X.shape} and y {y.shape} do not align")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on zero rows")
    if X.shape[1] == 0:
        raise ValueError("cannot fit on zero features")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return X, y.astype(np.int64)


def _ranks(X: np.ndarray) -> np.ndarray:
    """Per-column ranks of X as int32; equal values share a rank. One column
    at a time, so no n x d sort temporary is held. Refuses over MAX_ROWS rows."""
    if X.shape[0] > MAX_ROWS:
        raise ValueError(f"a tree grows on at most {MAX_ROWS} rows (2**21), got {X.shape[0]}")
    ranks = np.zeros(X.shape, dtype=np.int32)
    for j, col in enumerate(X.T):
        order = np.argsort(col)   # any order of equal values gives them one rank
        xs = col[order]
        ranks[order[1:], j] = np.cumsum(xs[1:] != xs[:-1])
    return ranks


def _draw_features(rng: np.random.Generator, d: int, m: int, k: int) -> np.ndarray:
    """k rows of ``rng.choice(d, size=m, replace=False)`` from one draw.

    ``choice`` runs Floyd's selection (one integer below each of d-m+1..d),
    then a Fisher-Yates shuffle (below each of m..2), so one ``integers``
    call over those bounds, node after node, reads the same stream and
    leaves the generator in the same state."""
    bounds = np.concatenate((np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)))
    draws = rng.integers(0, np.tile(bounds, k)).tolist()
    step = bounds.size
    feats = []
    for start in range(0, k * step, step):
        pick, chosen = [], set()
        for j, val in zip(range(d - m, d), draws[start:start + m]):
            val = j if val in chosen else val
            chosen.add(val)
            pick.append(val)
        for i, swap in zip(range(m - 1, 0, -1), draws[start + m:start + step]):
            pick[i], pick[swap] = pick[swap], pick[i]
        feats.append(pick)
    return np.array(feats, dtype=np.int64)


def _best_splits(X, ranks, rows, w, wy, node, feats, size, pos):
    """Best boundary of every node at one depth, in one pass.

    Live row i (``rows``, counts ``w``, weighted labels ``wy``) sits in node
    ``node[i]``, whose drawn columns are ``feats[node[i]]`` and whose total
    count and positives are ``size``/``pos``. Sorting each slot by (node,
    rank) makes every node one segment, at the same place in every slot; a
    candidate ends a run of equal values inside its node, and its left count
    and positives are prefix sums minus the segment's start. Keys and row
    positions sort together as int64 (node*N + rank)*n_live + i. Returns (slot,
    threshold) per node, slot -1 where no drawn column has two distinct
    values; ties go to the smallest left count, then the first slot.
    """
    k, m = feats.shape
    n_live = rows.size
    packed = node * X.shape[0] + np.take(ranks, ranks.shape[1] * rows + feats[node].T)
    packed *= n_live
    packed += np.arange(n_live)
    packed.sort(axis=1)   # equal keys in any order: sums are exact, only a run's end counts
    key, order = np.divmod(packed, n_live)
    seg = np.bincount(node, minlength=k)
    start = np.concatenate(([0], np.cumsum(seg)[:-1]))
    owner = np.repeat(np.arange(k), seg)
    ws, wys = np.take(w, order), np.take(wy, order)
    nl, pl = np.cumsum(ws, axis=1), np.cumsum(wys, axis=1)
    nl -= np.repeat(nl[:, start] - ws[:, start], seg, axis=1)
    pl -= np.repeat(pl[:, start] - wys[:, start], seg, axis=1)
    n = size[owner]
    with np.errstate(divide="ignore", invalid="ignore"):   # nr == 0 at a node's last row
        weighted = _weighted_gini(nl, pl, n - nl, pos[owner] - pl, n)
    weighted[:, :-1][key[:, 1:] == key[:, :-1]] = np.inf   # not between distinct values
    weighted[:, start + seg - 1] = np.inf   # a node's last row: nothing on the right

    best = np.minimum.reduceat(weighted, start, axis=1).min(axis=0)
    best[np.isinf(best)] = np.nan            # no candidate: matches nothing below
    j, p = np.nonzero(weighted == best[owner])
    pick = np.lexsort((j, nl[j, p], owner[p]))
    _, first = np.unique(owner[p[pick]], return_index=True)
    j, p = j[pick[first]], p[pick[first]]
    hit = owner[p]
    slot = np.full(k, -1, dtype=np.intp)
    slot[hit] = j
    threshold = np.zeros(k)
    f = feats[hit, j]
    threshold[hit] = _midpoint(X[rows[order[j, p]], f], X[rows[order[j, p + 1]], f])
    return slot, threshold


def _weighted_gini(nl, pl, nr, pr, n):
    """(nl*gini_l + nr*gini_r) / n, gini = 1 - (p/c)**2 - ((c-p)/c)**2, in place."""
    terms = []
    for c, p in ((nl, pl), (nr, pr)):
        a, b = p / c, c - p
        b /= c
        np.subtract(1.0, np.square(a, out=a), out=a)
        a -= np.square(b, out=b)
        terms.append(np.multiply(a, c, out=a))
    return np.divide(np.add(*terms, out=terms[0]), n, out=terms[0])


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a + b) / 2 for a < b, or ``a`` where that rounds (or overflows) out
    of [a, b): the threshold must keep ``a`` on the left and ``b`` on the
    right, or the node would repeat itself."""
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    return np.where((a <= mid) & (mid < b), mid, a)


class DecisionTree:
    """One CART tree stored as flat node arrays (feature -1 marks a leaf)."""

    def __init__(self, spec: ForestSpec, rng: np.random.Generator):
        self.spec = spec
        self._rng = rng
        self.n_features: int | None = None
        self.feature = self.threshold = self.left = self.right = self.value = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = _fit_input(X, y)
        return self._grow(X, _ranks(X), y, np.ones(X.shape[0]))

    def _grow(self, X: np.ndarray, ranks: np.ndarray, y: np.ndarray,
              counts: np.ndarray) -> "DecisionTree":
        """Grow on the rows of X weighted by ``counts`` (a bootstrap's
        multiplicities), one depth per iteration; node ids are breadth-first."""
        d = X.shape[1]
        m = math.ceil(math.sqrt(d))
        spec = self.spec
        rows = np.flatnonzero(counts)
        w = counts[rows].astype(np.float64)
        wy = w * y[rows]
        node = np.zeros(rows.size, dtype=np.intp)   # each live row's node within its depth
        parts = []                                  # per depth: its nodes' arrays, ids in order
        width, next_id, depth = 1, 1, 0
        while width:
            size = np.bincount(node, weights=w, minlength=width)
            pos = np.bincount(node, weights=wy, minlength=width)
            feature, left, right = (np.full(width, -1, dtype=np.intp) for _ in range(3))
            threshold = np.zeros(width)
            parts.append((feature, threshold, left, right, (2 * pos > size).astype(np.int64)))
            depth_ok = spec.max_depth is None or depth < spec.max_depth
            can = (pos > 0) & (pos < size) & (size >= spec.min_samples_split) & depth_ok
            cand = np.flatnonzero(can)
            if not cand.size:
                break
            feats = _draw_features(self._rng, d, m, cand.size)
            live = can[node]
            rows, w, wy = rows[live], w[live], wy[live]
            node = (np.cumsum(can) - 1)[node[live]]
            slot, thr = _best_splits(X, ranks, rows, w, wy, node, feats, size[cand], pos[cand])
            hit = slot >= 0
            at = cand[hit]
            feature[at] = feats[hit, slot[hit]]
            threshold[at] = thr[hit]
            left[at] = next_id + 2 * np.arange(at.size)
            right[at] = left[at] + 1
            next_id += 2 * at.size
            live = hit[node]
            rows, w, wy, node = rows[live], w[live], wy[live], node[live]
            go_left = X[rows, feats[node, slot[node]]] <= thr[node]
            node = 2 * (np.cumsum(hit) - 1)[node] + ~go_left
            width = 2 * at.size
            depth += 1

        self.n_features = d
        self.feature, self.threshold, self.left, self.right, self.value = (
            np.concatenate(field) for field in zip(*parts))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.n_features is None:
            raise ValueError("the tree is not fitted: call fit before predict")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"X has shape {X.shape}; the tree was fitted on "
                             f"{self.n_features} features")
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
        self.n_features: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X, y = _fit_input(X, y)
        n, self.n_features = X.shape
        ranks = _ranks(X)
        self.trees = []
        for t in range(self.spec.n_trees):
            rng = np.random.default_rng([self.spec.seed, t])
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            self.trees.append(DecisionTree(self.spec, rng)._grow(X, ranks, y, counts))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise ValueError("the forest is not fitted: call fit before predict")
        return np.mean([tree.predict(X) for tree in self.trees], axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self.predict_proba(X) * len(self.trees)
        return (2.0 * votes > len(self.trees)).astype(np.int64)


def train_forest(features: np.ndarray, y: np.ndarray, spec: ForestSpec | None = None) -> RandomForest:
    return RandomForest(spec or ForestSpec()).fit(features, y)
