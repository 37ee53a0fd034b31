"""Tabular dataset ingestion: UCI Adult Income and German Credit, plus two
generators: ``synthetic``, whose sensitive attribute is a function of one
feature, and ``planted``, whose label base rate differs between the groups.

Loaders produce a :class:`Dataset` holding the feature matrix X (categoricals
one-hot encoded, binary categoricals as a single 0/1 column), binary labels y,
and the binary sensitive attribute s (gender). Continuous columns are kept
raw at load time; :func:`standardize` z-scores them with statistics from a
training index set only, so splits control their own normalization.

Both UCI loaders are one reader, :func:`_load_table`, driven by one
:class:`_Table` per dataset. Files are UTF-8 text (a leading byte-order mark
is skipped). Blank lines and lines starting with ``|`` are skipped; rows with
a ``?`` field are dropped and counted in ``meta``.

Memory: each matrix is built once, in place. The UCI reader streams lines
into one list of rows in which each distinct field value is one shared
string, and encodes the matrix from it. :meth:`Dataset.subset` copies
the chosen rows once (fancy indexing), and :func:`standardize` computes the
train-row statistics once and applies them to the row sets the caller asks
for, so a caller that needs only the train and val rows never holds a
standardized copy of the whole matrix.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np


TEXT_ENCODING = "utf-8-sig"  # user files are UTF-8; a leading byte-order mark is skipped


class DatasetError(ValueError):
    """A raw file could not be turned into a valid (X, y, s) dataset."""


# ---------------------------------------------------------------------------
# Checks: the one scalar checker, of config keys and spec fields, and fit input


def _check(value, key: str, kind, min=None, choices=None, error: type[Exception] = ValueError):
    """Type- and bound-check one scalar value, raising ``error`` named by
    ``key``; ``kind`` is a type, or ``X | None`` to allow None, and an int
    widens to a float."""
    kind, nullable = _kind(kind)
    if value is None and nullable:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:   # past float range: refused below as not finite
            value = math.inf if value > 0 else -math.inf
    if kind is int and isinstance(value, bool):
        raise error(f"{key}: expected int, got bool")
    if not isinstance(value, kind):
        raise error(f"{key}: expected {kind.__name__}, got {type(value).__name__} ({value!r})")
    if kind is float and not math.isfinite(value):
        raise error(f"{key}: must be a finite number, got {value}")
    if kind is int and not -2**63 <= value < 2**63:
        raise error(f"{key}: must fit in a 64-bit integer")
    if min is not None and value < min:
        raise error(f"{key}: must be >= {min}, got {value}")
    if choices is not None and value not in choices:
        raise error(f"{key}: unknown value {value!r}, "
                    f"allowed values: {', '.join(map(str, choices))}")
    return value


def _kind(annotation) -> tuple[type, bool]:
    """The scalar type of an annotation and whether it may be null (``int | None``)."""
    args = typing.get_args(annotation)
    return next((a for a in args if a is not type(None)), annotation), type(None) in args


def _bounded(default=MISSING, *, min=None, choices=None):
    """A spec field whose type is its annotation and whose bound is ``min`` or
    ``choices``; a config key that sets the field takes its default and bound."""
    return field(default=default, metadata={"min": min, "choices": choices})


def _check_fields(spec, error: type[Exception] = ValueError) -> None:
    """Check and keep each :func:`_bounded` field of the dataclass ``spec``, named
    by the field; its module does not postpone annotations, so ``f.type`` is a type."""
    for f in fields(spec):
        if "min" in f.metadata:
            object.__setattr__(spec, f.name, _check(getattr(spec, f.name), f.name, f.type,
                                                    error=error, **f.metadata))


def _fit_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as a float matrix and y as int64 labels, refused unless they align,
    X has a row and a column and is finite, and y holds only 0 and 1. Every
    predictor (forest, logreg, probe) and ``train_stack`` check their input here."""
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


@dataclass
class Dataset:
    X: np.ndarray                     # (n, d) float64
    y: np.ndarray                     # (n,) int 0/1
    s: np.ndarray                     # (n,) int 0/1
    feature_names: list[str]
    continuous: list[str]             # names of z-scorable columns
    norm_stats: dict[str, tuple[float, float]] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.X.ndim != 2 or not self.y.shape == self.s.shape == self.X.shape[:1]:
            raise DatasetError(f"misaligned dataset: X {self.X.shape}, y {self.y.shape} and "
                               f"s {self.s.shape} must be (n, d), (n,) and (n,)")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def summary(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "y_balance": float(self.y.mean()),
            "s_balance": float(self.s.mean()),
            "n_raw": self.meta.get("n_raw", self.n),
            "n_dropped": self.meta.get("n_dropped", 0),
            "source": self.meta.get("source", "synthetic"),
        }

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.intp)
        return Dataset(
            X=self.X[idx], y=self.y[idx], s=self.s[idx],  # fancy indexing copies
            feature_names=list(self.feature_names), continuous=list(self.continuous),
            norm_stats=None if self.norm_stats is None else dict(self.norm_stats),
            meta=dict(self.meta),
        )


# ---------------------------------------------------------------------------
# UCI tables: one reader, driven by one table per dataset

@dataclass
class _Column:
    name: str
    kind: str  # "continuous" | "categorical"


@dataclass(frozen=True)
class _Table:
    """One UCI dataset. A line holds one field per column, then the label,
    split on ``sep`` (None: whitespace). ``labels`` maps the label to y and
    ``groups`` maps field ``sensitive`` to s; that field is left out of X. A
    directory holds ``files``, read in order. The nouns name the codes in
    errors.
    """

    columns: tuple[_Column, ...]
    files: tuple[str, ...]
    sep: str | None
    labels: dict[str, int]
    groups: dict[str, int]
    sensitive: int
    label_noun: str
    group_noun: str


ADULT = _Table(
    columns=(
        _Column("age", "continuous"),
        _Column("workclass", "categorical"),
        _Column("fnlwgt", "continuous"),
        _Column("education", "categorical"),
        _Column("education-num", "continuous"),
        _Column("marital-status", "categorical"),
        _Column("occupation", "categorical"),
        _Column("relationship", "categorical"),
        _Column("race", "categorical"),
        _Column("sex", "categorical"),
        _Column("capital-gain", "continuous"),
        _Column("capital-loss", "continuous"),
        _Column("hours-per-week", "continuous"),
        _Column("native-country", "categorical"),
    ),
    files=("adult.data", "adult.test"),
    sep=",",
    # adult.test spells its labels with a trailing period
    labels={">50K": 1, ">50K.": 1, "<=50K": 0, "<=50K.": 0},
    groups={"Male": 1, "Female": 0},
    sensitive=9,
    label_noun="income label",
    group_noun="sex value",
)

GERMAN = _Table(
    columns=(
        _Column("checking_status", "categorical"),
        _Column("duration", "continuous"),
        _Column("credit_history", "categorical"),
        _Column("purpose", "categorical"),
        _Column("credit_amount", "continuous"),
        _Column("savings", "categorical"),
        _Column("employment", "categorical"),
        _Column("installment_rate", "continuous"),
        _Column("personal_status", "categorical"),
        _Column("other_debtors", "categorical"),
        _Column("residence_since", "continuous"),
        _Column("property", "categorical"),
        _Column("age", "continuous"),
        _Column("installment_plans", "categorical"),
        _Column("housing", "categorical"),
        _Column("existing_credits", "continuous"),
        _Column("job", "categorical"),
        _Column("num_dependents", "continuous"),
        _Column("telephone", "categorical"),
        _Column("foreign_worker", "categorical"),
    ),
    files=("german.data",),
    sep=None,
    labels={"1": 1, "2": 0},
    # personal-status/sex codes: A91/A93/A94 male, A92/A95 female
    groups={"A91": 1, "A93": 1, "A94": 1, "A92": 0, "A95": 0},
    sensitive=8,
    label_noun="credit class",
    group_noun="personal-status code",
)


def _table_files(table: _Table, path) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        files = [p / name for name in table.files if (p / name).exists()]
        if not files:
            raise DatasetError(f"no {'/'.join(table.files)} found under {p}")
        return files
    if not p.exists():
        raise DatasetError(f"cannot read {p}")
    return [p]


def _encode_columns(rows: list[list[str]], columns, keep: list[int]):
    """Encode fields ``keep`` of the string rows, field ``j`` as described by
    ``columns[j]``, into a float matrix.

    Continuous columns parse as finite floats. Categorical columns with two
    values become one 0/1 indicator; with k > 2 values, k one-hot indicators
    (categories in sorted order); single-valued columns are dropped. The
    width is known after one pass over the categories, so the matrix is
    filled in place.
    """
    n = len(rows)
    cats = {j: sorted({r[j] for r in rows}) for j in keep if columns[j].kind == "categorical"}
    # k categories take k indicators, or k - 1 for k <= 2 (a constant is
    # dropped, a pair is one 0/1 column)
    width = sum(1 if j not in cats else len(cats[j]) - (len(cats[j]) <= 2) for j in keep)
    X = np.zeros((n, width))
    names: list[str] = []
    continuous: list[str] = []
    for j in keep:
        col = columns[j]
        at = len(names)  # the next free column
        if col.kind == "continuous":
            try:
                X[:, at] = [float(r[j]) for r in rows]
            except ValueError as exc:
                raise DatasetError(f"column {col.name!r}: non-numeric value ({exc})") from exc
            bad = np.flatnonzero(~np.isfinite(X[:, at]))
            if bad.size:
                i = int(bad[0])
                raise DatasetError(f"column {col.name!r}: non-finite value {rows[i][j]!r} "
                                   f"in row {i}")
            names.append(col.name)
            continuous.append(col.name)
            continue
        levels = cats[j]
        if len(levels) == 1:
            continue
        if len(levels) == 2:
            X[:, at] = [1.0 if r[j] == levels[1] else 0.0 for r in rows]
            names.append(f"{col.name}={levels[1]}")
            continue
        index = {c: at + i for i, c in enumerate(levels)}
        for i, r in enumerate(rows):
            X[i, index[r[j]]] = 1.0
        names.extend(f"{col.name}={c}" for c in levels)
    return X, names, continuous


def _load_table(table: _Table, path) -> Dataset:
    """Read ``path``, a file or a directory holding ``table.files`` (their
    rows concatenated; re-splitting is the caller's job), into a Dataset."""
    width = len(table.columns) + 1  # the features, then the label
    rows: list[list[str]] = []
    seen: dict[str, str] = {}  # one shared str per distinct field value
    n_raw = n_dropped = 0
    for f in _table_files(table, path):
        try:
            with open(f, encoding=TEXT_ENCODING) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("|"):
                        continue
                    fields = line.split(table.sep)
                    if len(fields) != width:
                        raise DatasetError(f"{f}:{lineno}: expected {width} fields, "
                                           f"got {len(fields)}")
                    n_raw += 1
                    fields = [seen.setdefault(v, v) for v in map(str.strip, fields)]
                    if "?" in fields:
                        n_dropped += 1
                        continue
                    rows.append(fields)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{f} is not UTF-8 text: {exc.reason}") from None
    if not rows:
        raise DatasetError(f"no usable rows in {path}")

    y = np.empty(len(rows), dtype=np.int64)
    s = np.empty(len(rows), dtype=np.int64)
    for i, r in enumerate(rows):
        if r[-1] not in table.labels:
            raise DatasetError(f"unknown {table.label_noun} {r[-1]!r} in row {i}")
        group = r[table.sensitive]
        if group not in table.groups:
            raise DatasetError(f"unknown {table.group_noun} {group!r} in row {i}")
        y[i] = table.labels[r[-1]]
        s[i] = table.groups[group]
    for values, what in ((y, "label"), (s, "sensitive")):
        if len(np.unique(values)) < 2:
            raise DatasetError(f"{what} column degenerate: only one class present")

    keep = [j for j in range(len(table.columns)) if j != table.sensitive]
    X, names, continuous = _encode_columns(rows, table.columns, keep)
    return Dataset(
        X=X, y=y, s=s, feature_names=names, continuous=continuous,
        meta={"source": str(path), "n_raw": n_raw, "n_dropped": n_dropped},
    )


def load_adult(path) -> Dataset:
    """UCI Adult Income: y=1 for income >50K, s=1 for sex Male.

    ``path`` is one CSV file or a directory holding adult.data/adult.test.
    """
    return _load_table(ADULT, path)


def load_german(path) -> Dataset:
    """UCI German Credit: y=1 for class 1 (good), s from the
    personal-status/sex codes (A91/A93/A94 male=1, A92/A95 female=0).

    ``path`` is the whitespace-separated german.data or its directory.
    """
    return _load_table(GERMAN, path)


# ---------------------------------------------------------------------------
# Generated data

def make_synthetic(n: int = 2000, seed: int = 0, n_noise: int = 3,
                   flip_y: float = 0.0) -> Dataset:
    """Toy dataset: s is a deterministic function of feature 0 (exactly
    balanced groups), y depends only on features 1 and 2.

    Feature 0 carries s with a margin, so an adversary on the raw features
    recovers s almost perfectly; y is independent of feature 0 by
    construction. ``flip_y`` adds label noise.
    """
    _check(n, "n", int, min=4, error=DatasetError)
    rng = np.random.default_rng(seed)
    s = np.zeros(n, dtype=np.int64)
    s[: n // 2] = 1
    rng.shuffle(s)
    X = np.empty((n, 3 + n_noise))  # columns drawn in order, straight into place
    X[:, 0] = (np.abs(rng.normal(size=n)) + 0.2) * np.where(s == 1, 1.0, -1.0)
    X[:, 1] = rng.normal(size=n)
    X[:, 2] = rng.normal(size=n)
    y = (X[:, 1] + X[:, 2] > 0).astype(np.int64)
    if flip_y > 0:
        flip = rng.random(n) < flip_y
        y = np.where(flip, 1 - y, y)
    for j in range(3, X.shape[1]):
        X[:, j] = rng.normal(size=n)
    names = [f"f{i}" for i in range(X.shape[1])]
    return Dataset(
        X=X, y=y, s=s, feature_names=names, continuous=list(names),
        meta={"source": "synthetic", "seed": seed, "n_raw": n, "n_dropped": 0},
    )


def make_planted(n: int, seed: int) -> Dataset:
    """The offline stand-in for a census table: s ~ Bernoulli(0.33) and
    P(y=1 | s) = 0.31 for s=1, 0.11 for s=0, so the label base rate differs
    by 0.20 between the groups. The 30 columns are 4 label columns
    (2y-1) + N(0, 1), 4 proxy columns (2s-1) + N(0, 1), 2 mixed columns
    0.5(2y-1) + 0.5(2s-1) + N(0, 1) and 20 noise columns N(0, 1), in that
    order, each drawing its N(0, 1) from the one stream after s and y.
    """
    _check(n, "n", int, min=4, error=DatasetError)
    rng = np.random.default_rng(seed)
    s = rng.random(n) < 0.33
    y = rng.random(n) < np.where(s, 0.31, 0.11)
    label, proxy = 2.0 * y - 1.0, 2.0 * s - 1.0
    kinds = [("label", label, 4), ("proxy", proxy, 4),
             ("mixed", 0.5 * label + 0.5 * proxy, 2), ("noise", 0.0, 20)]
    columns = [(f"{kind}{i}", signal) for kind, signal, count in kinds for i in range(count)]
    X = np.empty((n, len(columns)))
    for j, (_, signal) in enumerate(columns):
        X[:, j] = signal + rng.normal(size=n)
    names = [name for name, _ in columns]
    return Dataset(
        X=X, y=y.astype(np.int64), s=s.astype(np.int64), feature_names=names,
        continuous=list(names),
        meta={"source": "planted", "seed": seed, "n_raw": n, "n_dropped": 0},
    )


# ---------------------------------------------------------------------------
# Standardization

def standardize(ds: Dataset, train_idx, *row_sets) -> Dataset | tuple[Dataset, ...]:
    """Z-score continuous columns using statistics of ``train_idx`` rows only.

    With no ``row_sets``, returns the whole dataset standardized. Otherwise
    returns one standardized subset per index set in ``row_sets`` (as
    ``standardize(ds, train_idx).subset(rows)`` would, without the whole
    copy). The same transform is applied to every row; validation/test means
    are in general not zero. Constant columns (train std ~ 0) are left
    unscaled.
    """
    train_idx = np.asarray(train_idx, dtype=np.intp)
    if train_idx.size == 0:
        raise DatasetError("standardize needs a non-empty training index set")
    parts = [ds.subset(rows) for rows in row_sets] or [ds.subset(np.arange(ds.n))]
    stats: dict[str, tuple[float, float]] = {}
    col_of = {name: i for i, name in enumerate(ds.feature_names)}
    for name in ds.continuous:
        j = col_of[name]
        col = ds.X[train_idx, j]
        mean, std = float(col.mean()), float(col.std())
        if std < 1e-12:
            std = 1.0
        for part in parts:
            part.X[:, j] = (part.X[:, j] - mean) / std
        stats[name] = (mean, std)
    for part in parts:
        part.norm_stats = dict(stats)
    return tuple(parts) if row_sets else parts[0]


# ---------------------------------------------------------------------------
# Splits and batches

@dataclass
class SplitPlan:
    """A seeded train/val partition of [0, n)."""

    train: np.ndarray
    val: np.ndarray


def train_val_test_split(n: int, seed: int, val_frac: float = 0.2) -> SplitPlan:
    if not 0 <= val_frac < 1:
        raise ValueError(f"val_frac={val_frac} must be in [0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_val = int(round(n * val_frac))
    return SplitPlan(val=np.sort(perm[:n_val]), train=np.sort(perm[n_val:]))


def make_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle partitioned into k near-equal folds covering [0, n)."""
    if k < 2 or k > n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k)]  # the first n % k get one more


def fold_train_indices(folds: list[np.ndarray], fold: int) -> np.ndarray:
    rest = [f for i, f in enumerate(folds) if i != fold]
    return np.sort(np.concatenate(rest))


def batches(n: int, batch_size: int, seed, epoch: int) -> list[np.ndarray]:
    """Seeded per-epoch shuffle of [0, n) chopped into batches; the final
    partial batch is included.

    ``seed`` may be an int or a sequence of ints (e.g. (run_seed, level));
    the epoch is mixed into the stream so every epoch reshuffles.
    """
    _check(batch_size, "batch_size", int, min=1)
    entropy = [int(x) for x in (seed if isinstance(seed, (list, tuple)) else [seed])]
    if any(x < 0 for x in entropy) or epoch < 0:
        raise ValueError("seed and epoch must be non-negative")
    perm = np.random.default_rng(entropy + [int(epoch)]).permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]
