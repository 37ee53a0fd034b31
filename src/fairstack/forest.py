"""Random forest for binary labels, built on CART with Gini impurity.

Trees grow greedily, level by level. At each depth every node that is impure
and above ``max_depth`` draws a fresh random subset of m = ceil(sqrt(d))
features from the tree's stream: the first m entries of a stable argsort of
d uniform draws, node by node in breadth-first order (one (nodes, d) draw per
depth). All of them are searched in one vectorized pass for the boundary
(midpoint between consecutive distinct values, or the lower value where the
midpoint rounds up to the upper) of least weighted child Gini. Node ids are
breadth-first. Zero-gain splits are allowed; greedy Gini needs them to
express XOR-like concepts. Each tree's bootstrap sample, drawn from a
per-tree seeded stream, is kept as counts on the original rows: CART on
counts splits exactly as CART on the duplicated rows, and X is ranked once
per forest instead of copied per tree (at most MAX_ROWS = 2**21 rows).
A forest exists only fitted, as its trees' node arrays and its input width;
it predicts by strict-majority vote (ties go to class 0).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _bounded, _check_fields, _fit_input

MAX_ROWS = 2 ** 21   # keeps the packed int64 sort values of _best_splits below 2**63


@dataclass(frozen=True)
class ForestSpec:
    """Each field is checked against its type and bound when the spec is made."""
    n_trees: int = _bounded(100, min=1)
    max_depth: int | None = _bounded(None, min=1)   # None = grow until pure
    seed: int = _bounded(0, min=0)

    def __post_init__(self):
        _check_fields(self)


def _ranks(X: np.ndarray) -> np.ndarray:
    """Per-column ranks of X as int32; equal values share a rank. One column
    at a time, so no n x d sort temporary is held. Refuses over MAX_ROWS rows."""
    if X.shape[0] > MAX_ROWS:
        raise ValueError(f"a tree grows on at most {MAX_ROWS} rows (2**21), got {X.shape[0]}")
    ranks = np.empty(X.shape, dtype=np.int32)
    for j, col in enumerate(X.T):
        ranks[:, j] = np.unique(col, return_inverse=True)[1]   # dense: 0.0 and -0.0 tie
    return ranks


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


class Tree(NamedTuple):
    """One CART tree as flat node arrays, ids breadth-first (feature -1 marks a leaf)."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _grow(X: np.ndarray, ranks: np.ndarray, y: np.ndarray, counts: np.ndarray,
          rng: "np.random.Generator",  # quoted: numpy.random loads on use
          max_depth: int | None) -> Tree:
    """Grow on the rows of X weighted by ``counts`` (a bootstrap's
    multiplicities), one depth per iteration; columns are drawn from ``rng``."""
    d = X.shape[1]
    m = math.ceil(math.sqrt(d))
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
        can = (pos > 0) & (pos < size) & (max_depth is None or depth < max_depth)
        cand = np.flatnonzero(can)
        if not cand.size:
            break
        feats = rng.random((cand.size, d)).argsort(axis=1, kind="stable")[:, :m]
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
    return Tree(*(np.concatenate(field) for field in zip(*parts)))


class RandomForest:
    """Bagged trees and the width they were fitted on, built only by
    :func:`train_forest`; ``predict`` is a strict-majority vote over trees."""

    def __init__(self, trees: list[Tree], n_features: int):
        self.trees = trees
        self.n_features = n_features

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"X has shape {X.shape}; the forest was fitted on "
                             f"{self.n_features} features")
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            cur = np.zeros(X.shape[0], dtype=np.intp)
            while (rows := np.flatnonzero(tree.feature[cur] >= 0)).size:
                at = cur[rows]
                go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
                cur[rows] = np.where(go_left, tree.left[at], tree.right[at])
            votes += tree.value[cur]
        return (2 * votes > len(self.trees)).astype(np.int64)


def train_forest(features: np.ndarray, y: np.ndarray, spec: ForestSpec | None = None) -> RandomForest:
    spec = spec or ForestSpec()
    X, y = _fit_input(features, y)
    n = X.shape[0]
    ranks = _ranks(X)
    trees = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        trees.append(_grow(X, ranks, y, counts, rng, spec.max_depth))
    return RandomForest(trees, X.shape[1])
