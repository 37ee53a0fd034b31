"""Independent reference implementations the tests compare against.

Everything here is deliberately written from first principles (plain loops,
no imports from the package under test) so agreement is evidence, not
circularity.
"""

from __future__ import annotations

import collections
import math

import numpy as np


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def grad_close(analytic: np.ndarray, numeric: np.ndarray,
               rtol: float = 1e-4, atol: float = 1e-7) -> bool:
    return np.allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# Sigmoid, as the package computed it before its branch-free form: each sign
# handled on its own boolean mask, exp only ever of a non-positive number.


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Adam reference: transcribed line by line from the published update rule.


def adam_reference_trace(grad_fn, x0: float, steps: int, lr: float = 0.01,
                         beta1: float = 0.9, beta2: float = 0.999,
                         eps: float = 1e-8) -> list[float]:
    """Scalar Adam with bias correction; returns [x0, x1, ..., x_steps]."""
    x = float(x0)
    m = 0.0
    v = 0.0
    xs = [x]
    for t in range(1, steps + 1):
        g = float(grad_fn(x))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        xs.append(x)
    return xs


class AdamReference:
    """Adam over objects with ``.value`` / ``.grad`` arrays, one parameter at a
    time, each updated in place with the rule above."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.isfinite(p.value).all():
                raise FloatingPointError("non-finite parameter after a reference Adam step")


def main_params(level) -> list:
    """A level's main-step parameters: encoder, decoder, classifier."""
    return level.encoder.params() + level.decoder.params() + level.classifier.params()


def all_params(level) -> list:
    """Every parameter of a level: its main-step ones, then the adversary's."""
    return main_params(level) + level.adversary.params()


# ---------------------------------------------------------------------------
# Fairness metrics by direct filtering (no numpy, no shared helpers).


def naive_group_stats(y_pred, y_true, s) -> dict:
    """Per-group counts and rates computed with explicit loops.

    Rates over an empty selection are None.
    """
    out = {}
    n = len(s)
    for g in (0, 1):
        rows = [i for i in range(n) if s[i] == g]
        y1 = [i for i in rows if y_true[i] == 1]
        y0 = [i for i in rows if y_true[i] == 0]
        def rate(idxs):
            if not idxs:
                return None
            return sum(1 for i in idxs if y_pred[i] == 1) / len(idxs)
        out[g] = {
            "n": len(rows),
            "pos_rate": rate(rows),
            "tpr": rate(y1),
            "fpr": rate(y0),
        }
    return out


def naive_metrics(y_pred, y_true, s) -> dict:
    """accuracy / ΔDP / ΔEO(sum) / ΔEOpp with None where a needed cell is empty."""
    stats = naive_group_stats(y_pred, y_true, s)
    n = len(s)
    acc = sum(1 for i in range(n) if y_pred[i] == y_true[i]) / n
    dp = eo = eopp = None
    if stats[0]["pos_rate"] is not None and stats[1]["pos_rate"] is not None:
        dp = abs(stats[0]["pos_rate"] - stats[1]["pos_rate"])
    if all(stats[g]["tpr"] is not None for g in (0, 1)):
        eopp = abs(stats[0]["tpr"] - stats[1]["tpr"])
        if all(stats[g]["fpr"] is not None for g in (0, 1)):
            eo = eopp + abs(stats[0]["fpr"] - stats[1]["fpr"])
    return {"accuracy": acc, "delta_dp": dp, "delta_eo": eo, "delta_eopp": eopp}


def enumerate_count_batches(max_n: int):
    """Yield (y_pred, y_true, s) tuples covering every multiset of the 8
    possible (prediction, label, group) rows up to total size max_n.

    Sample order within a batch is canonical; order-invariance is a separate
    property. Cell order: index bits = (pred, label, group).
    """
    cells = [(p, t, g) for p in (0, 1) for t in (0, 1) for g in (0, 1)]

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    for n in range(1, max_n + 1):
        for counts in compositions(n, 8):
            y_pred, y_true, s = [], [], []
            for count, (p, t, g) in zip(counts, cells):
                y_pred.extend([p] * count)
                y_true.extend([t] * count)
                s.extend([g] * count)
            yield y_pred, y_true, s


# ---------------------------------------------------------------------------
# Decision-tree split oracle: try every midpoint of every feature.


def gini_of(labels) -> float:
    if not len(labels):
        return 0.0
    p = sum(labels) / len(labels)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def brute_force_best_split(x, y):
    """Best (threshold, weighted child impurity) for one feature, or None."""
    values = sorted(set(x))
    best = None
    for a, b in zip(values, values[1:]):
        thr = (a + b) / 2.0
        left = [y[i] for i in range(len(x)) if x[i] <= thr]
        right = [y[i] for i in range(len(x)) if x[i] > thr]
        w = (len(left) * gini_of(left) + len(right) * gini_of(right)) / len(x)
        if best is None or w < best[1] - 1e-12:
            best = (thr, w)
    return best


# ---------------------------------------------------------------------------
# Reference CART grower: one node at a time, each node's split found by
# sorting its own rows. Nodes are processed in FIFO order (left child queued
# first), so feature subsets are drawn breadth-first, the order the package's
# level-wise grower draws them in. A forest tree is grown on the duplicated
# bootstrap rows X[boot].


def reference_weighted_gini(nl, pl, nr, pr, n):
    """Weighted child Gini of a boundary with ``nl``/``nr`` rows and
    ``pl``/``pr`` positives on each side, as one out-of-place expression."""
    gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
    gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
    return (nl * gini_l + nr * gini_r) / n


def reference_best_split(Xf: np.ndarray, y: np.ndarray):
    """Best boundary over the given feature columns.

    Returns (column-index-within-Xf, threshold, weighted-child-impurity) or
    None when no column has two distinct values. Candidate thresholds are
    midpoints between consecutive distinct sorted values (the lower value
    where the midpoint rounds up to the upper one); the weighted
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
    a, b = xs[i, j], xs[i + 1, j]
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    return j, float(mid if a <= mid < b else a), float(weighted[i, j])


def reference_tree(X: np.ndarray, y: np.ndarray, spec, rng: np.random.Generator) -> dict:
    """CART tree arrays (feature, threshold, left, right, value) for ``spec``
    (``max_depth``, ``min_samples_split``), drawing from ``rng``."""
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

    queue = collections.deque([(new_node(), np.arange(n), 0)])
    while queue:
        node, idx, depth = queue.popleft()
        yn = y[idx]
        n_pos = int(yn.sum())
        value[node] = 1 if 2 * n_pos > idx.size else 0   # majority, tie -> 0
        pure = n_pos == 0 or n_pos == idx.size
        depth_ok = spec.max_depth is None or depth < spec.max_depth
        if pure or idx.size < spec.min_samples_split or not depth_ok:
            continue
        feats = rng.choice(d, size=m, replace=False)
        found = reference_best_split(X[np.ix_(idx, feats)], yn)
        if found is None:
            continue
        j, thr, _ = found
        f = int(feats[j])
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        queue.append((left[node], idx[go_left], depth + 1))
        queue.append((right[node], idx[~go_left], depth + 1))

    return {
        "feature": np.array(feature, dtype=np.intp),
        "threshold": np.array(threshold),
        "left": np.array(left, dtype=np.intp),
        "right": np.array(right, dtype=np.intp),
        "value": np.array(value, dtype=np.int64),
    }


def reference_forest_trees(X: np.ndarray, y: np.ndarray, spec) -> list[dict]:
    """Tree arrays of a bagged forest for ``spec`` (``n_trees``, ``seed`` and
    the tree fields): per tree, a stream seeded ``[seed, t]`` draws the
    bootstrap rows, then grows the tree on them."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).reshape(-1).astype(np.int64)
    n = X.shape[0]
    trees = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        boot = rng.integers(0, n, size=n)
        trees.append(reference_tree(X[boot], y[boot], spec, rng))
    return trees


# ---------------------------------------------------------------------------
# Data: the list-then-stack synthetic generator and UCI encoder, and the
# copy-everything z-scoring, the forms the in-place versions must reproduce
# byte for byte.


def hstack_encode_columns(rows, columns, s=None, s_name=None):
    """(X, names) of the UCI column encoder built as one block per column,
    then ``np.hstack``; with ``s``, a second ``np.hstack`` appends it as a
    float column named ``s_name``. ``columns`` carry ``.name`` and ``.kind``."""
    blocks, names = [], []
    for j, col in enumerate(columns):
        raw = [r[j] for r in rows]
        if col.kind == "continuous":
            blocks.append(np.array([float(v) for v in raw]).reshape(-1, 1))
            names.append(col.name)
            continue
        cats = sorted(set(raw))
        if len(cats) == 2:
            blocks.append(np.array([1.0 if v == cats[1] else 0.0 for v in raw]).reshape(-1, 1))
            names.append(f"{col.name}={cats[1]}")
        elif len(cats) > 2:
            block = np.zeros((len(rows), len(cats)))
            for i, v in enumerate(raw):
                block[i, cats.index(v)] = 1.0
            blocks.append(block)
            names.extend(f"{col.name}={c}" for c in cats)
    X = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    if s is not None:
        X = np.hstack([X, s.reshape(-1, 1).astype(float)])
        names.append(s_name)
    return X, names


def column_stack_synthetic(n: int, seed: int, n_noise: int, flip_y: float):
    """(X, y, s) of the synthetic generator built as a list of columns, then
    ``np.column_stack``; same draws, in the same order."""
    rng = np.random.default_rng(seed)
    s = np.zeros(n, dtype=np.int64)
    s[: n // 2] = 1
    rng.shuffle(s)
    x0 = (np.abs(rng.normal(size=n)) + 0.2) * np.where(s == 1, 1.0, -1.0)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = (x1 + x2 > 0).astype(np.int64)
    if flip_y > 0:
        flip = rng.random(n) < flip_y
        y = np.where(flip, 1 - y, y)
    cols = [x0, x1, x2] + [rng.normal(size=n) for _ in range(n_noise)]
    return np.column_stack(cols), y, s


def copy_whole_standardize(X: np.ndarray, feature_names, continuous, train_idx):
    """(z-scored copy of all of X, stats): each continuous column centred and
    scaled by its train-row mean and std, a std below 1e-12 taken as 1."""
    X = X.copy()
    stats = {}
    for name in continuous:
        j = list(feature_names).index(name)
        mean = float(X[train_idx, j].mean())
        std = float(X[train_idx, j].std())
        if std < 1e-12:
            std = 1.0
        X[:, j] = (X[:, j] - mean) / std
        stats[name] = (mean, std)
    return X, stats
