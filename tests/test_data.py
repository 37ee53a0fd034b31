import numpy as np
import pytest

from fairstack import data
from fairstack.data import (
    Dataset,
    DatasetError,
    batches,
    fold_train_indices,
    load_adult,
    load_german,
    make_folds,
    make_synthetic,
    standardize,
    train_val_test_split,
)
from conftest import ADULT_TWO_ROWS
from oracles import (column_stack_synthetic, copy_whole_standardize,
                     hstack_encode_columns)

# ---------------------------------------------------------------------------
# Adult loader on crafted files

ROW_TEMPLATE = (
    "{age}, {workclass}, 77516, {education}, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, {sex}, 2174, 0, 40, United-States, {label}"
)


def _adult_file(tmp_path, rows, name="mini.data"):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def test_adult_two_rows(adult_two_row_file):
    ds = load_adult(adult_two_row_file)
    assert ds.n == 2
    np.testing.assert_array_equal(ds.y, [1, 0])
    np.testing.assert_array_equal(ds.s, [1, 0])
    assert all(not n.startswith("sex=") for n in ds.feature_names)
    assert ds.X.shape == (2, len(ds.feature_names))
    for name in ("age", "fnlwgt", "education-num", "hours-per-week"):
        assert name in ds.continuous


def test_adult_include_sensitive_appends_column(adult_two_row_file):
    ds = load_adult(adult_two_row_file, include_sensitive=True)
    assert ds.feature_names[-1] == "sex=Male"
    np.testing.assert_array_equal(ds.X[:, -1], ds.s.astype(float))


def test_adult_test_style_labels_with_trailing_period(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K."),
        ROW_TEMPLATE.format(age=40, workclass="State-gov", education="HS-grad",
                            sex="Female", label="<=50K."),
    ]
    ds = load_adult(_adult_file(tmp_path, rows))
    np.testing.assert_array_equal(ds.y, [1, 0])


def test_adult_drops_rows_with_missing_fields(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="?", education="HS-grad",
                            sex="Female", label="<=50K"),
        ROW_TEMPLATE.format(age=50, workclass="State-gov", education="HS-grad",
                            sex="Female", label="<=50K"),
    ]
    ds = load_adult(_adult_file(tmp_path, rows))
    assert ds.n == 2
    assert ds.meta["n_raw"] == 3
    assert ds.meta["n_dropped"] == 1


def test_adult_skips_comment_header_lines(tmp_path):
    rows = [
        "|1x3 Cross validator",
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="Private", education="HS-grad",
                            sex="Female", label="<=50K"),
    ]
    assert load_adult(_adult_file(tmp_path, rows)).n == 2


def test_adult_unknown_label_names_it(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K.."),
        ROW_TEMPLATE.format(age=40, workclass="Private", education="HS-grad",
                            sex="Female", label="<=50K"),
    ]
    with pytest.raises(DatasetError, match=r"unknown income label '>50K\.\.' in row 0"):
        load_adult(_adult_file(tmp_path, rows))


@pytest.mark.parametrize("age", ["nan", "inf", "-Infinity", "1e999"])
def test_adult_non_finite_continuous_value_names_column_and_row(tmp_path, age):
    # float() parses all four, so the loader must refuse them itself
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=age, workclass="Private", education="HS-grad",
                            sex="Female", label="<=50K"),
    ]
    with pytest.raises(DatasetError, match=rf"column 'age': non-finite value '{age}' in row 1"):
        load_adult(_adult_file(tmp_path, rows))


def test_adult_wrong_field_count_names_line(tmp_path):
    path = _adult_file(tmp_path, ["1, 2, 3"])
    with pytest.raises(DatasetError) as exc:
        load_adult(path)
    assert ":1:" in str(exc.value)
    assert "15 fields" in str(exc.value)


def test_adult_degenerate_label_error(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="Private", education="HS-grad",
                            sex="Female", label=">50K"),
    ]
    with pytest.raises(DatasetError) as exc:
        load_adult(_adult_file(tmp_path, rows))
    assert "sensitive/label column degenerate" in str(exc.value)


def test_adult_degenerate_sensitive_error(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="Private", education="HS-grad",
                            sex="Male", label="<=50K"),
    ]
    with pytest.raises(DatasetError) as exc:
        load_adult(_adult_file(tmp_path, rows))
    assert "sensitive/label column degenerate" in str(exc.value)


def test_three_category_column_one_hot_rows_sum_to_one(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="Private", education="HS-grad",
                            sex="Female", label="<=50K"),
        ROW_TEMPLATE.format(age=50, workclass="Private", education="Masters",
                            sex="Male", label="<=50K"),
        ROW_TEMPLATE.format(age=60, workclass="Private", education="Masters",
                            sex="Female", label=">50K"),
    ]
    ds = load_adult(_adult_file(tmp_path, rows))
    cols = [i for i, n in enumerate(ds.feature_names) if n.startswith("education=")]
    assert [ds.feature_names[i] for i in cols] == [
        "education=Bachelors", "education=HS-grad", "education=Masters"
    ]
    block = ds.X[:, cols]
    np.testing.assert_array_equal(block.sum(axis=1), np.ones(4))
    assert set(np.unique(block)) == {0.0, 1.0}


def test_binary_category_becomes_single_column(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="State-gov", education="Bachelors",
                            sex="Female", label="<=50K"),
    ]
    ds = load_adult(_adult_file(tmp_path, rows))
    work = [n for n in ds.feature_names if n.startswith("workclass")]
    assert work == ["workclass=State-gov"]
    j = ds.feature_names.index("workclass=State-gov")
    np.testing.assert_array_equal(ds.X[:, j], [0.0, 1.0])


def test_constant_category_dropped(tmp_path):
    rows = [
        ROW_TEMPLATE.format(age=30, workclass="Private", education="Bachelors",
                            sex="Male", label=">50K"),
        ROW_TEMPLATE.format(age=40, workclass="Private", education="HS-grad",
                            sex="Female", label="<=50K"),
    ]
    ds = load_adult(_adult_file(tmp_path, rows))
    assert not any(n.startswith("workclass") for n in ds.feature_names)


# ---------------------------------------------------------------------------
# German loader on crafted files

GERMAN_GOOD_MALE = ("A11 6 A34 A43 1169 A65 A75 4 A93 A101 4 A121 67 A143 "
                    "A152 2 A173 1 A192 A201 1")
GERMAN_BAD_FEMALE = ("A12 48 A32 A43 5951 A61 A73 2 A92 A101 2 A121 22 A143 "
                     "A152 1 A173 1 A191 A201 2")


def _german_file(tmp_path, lines):
    path = tmp_path / "german.data"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_german_codes_map_to_labels_and_groups(tmp_path):
    ds = load_german(_german_file(tmp_path, [GERMAN_GOOD_MALE, GERMAN_BAD_FEMALE]))
    np.testing.assert_array_equal(ds.y, [1, 0])
    np.testing.assert_array_equal(ds.s, [1, 0])
    for name in ("duration", "credit_amount", "age"):
        assert name in ds.continuous


def test_german_unknown_status_code(tmp_path):
    bad = GERMAN_GOOD_MALE.replace("A93", "A99")
    with pytest.raises(DatasetError) as exc:
        load_german(_german_file(tmp_path, [bad, GERMAN_BAD_FEMALE]))
    assert "A99" in str(exc.value)


def test_german_wrong_field_count(tmp_path):
    with pytest.raises(DatasetError) as exc:
        load_german(_german_file(tmp_path, ["A11 6 A34"]))
    assert "21 fields" in str(exc.value)


def test_german_drops_rows_with_missing_fields(tmp_path):
    missing = GERMAN_BAD_FEMALE.replace("A61", "?")
    ds = load_german(_german_file(tmp_path, [GERMAN_GOOD_MALE, missing, GERMAN_BAD_FEMALE]))
    assert ds.n == 2
    assert ds.meta["n_raw"] == 3
    assert ds.meta["n_dropped"] == 1
    np.testing.assert_array_equal(ds.y, [1, 0])


def test_german_skips_comment_and_blank_lines(tmp_path):
    lines = ["|German Credit, 21 fields", "", GERMAN_GOOD_MALE, "  ", GERMAN_BAD_FEMALE]
    ds = load_german(_german_file(tmp_path, lines))
    assert ds.n == 2 and ds.meta["n_raw"] == 2


@pytest.mark.parametrize("loader,names", [(load_adult, "adult.data/adult.test"),
                                          (load_german, "german.data")])
def test_directory_without_the_files_names_them(tmp_path, loader, names):
    with pytest.raises(DatasetError, match=f"no {names} found under"):
        loader(tmp_path)


def test_german_degenerate_error(tmp_path):
    other_male = GERMAN_BAD_FEMALE.replace("A92", "A93")
    with pytest.raises(DatasetError) as exc:
        load_german(_german_file(tmp_path, [GERMAN_GOOD_MALE, other_male]))
    assert "sensitive/label column degenerate" in str(exc.value)


# ---------------------------------------------------------------------------
# UCI encoder against the block-then-hstack form

THREE_EDUCATIONS = [
    ROW_TEMPLATE.format(age=age, workclass="Private", education=edu, sex=sex, label=label)
    for age, edu, sex, label in [(30, "Bachelors", "Male", ">50K"),
                                 (40, "HS-grad", "Female", "<=50K"),
                                 (50, "Masters", "Male", "<=50K")]
]


@pytest.mark.parametrize("include_sensitive", [False, True])
@pytest.mark.parametrize("loader,sex_name,lines", [
    (load_adult, "sex=Male", ADULT_TWO_ROWS.splitlines()),
    (load_adult, "sex=Male", THREE_EDUCATIONS),
    (load_german, "sex=male", [GERMAN_GOOD_MALE, GERMAN_BAD_FEMALE]),
])
def test_uci_matrix_matches_the_hstack_form(tmp_path, monkeypatch, loader, sex_name, lines,
                                            include_sensitive):
    seen = []
    encode = data._encode_columns

    def spy(rows, columns, keep, *args, **kwargs):
        # the oracle reads column j of each row: hand it the kept fields only
        seen.append(([[r[j] for j in keep] for r in rows], [columns[j] for j in keep]))
        return encode(rows, columns, keep, *args, **kwargs)

    monkeypatch.setattr(data, "_encode_columns", spy)
    path = _german_file(tmp_path, lines) if loader is load_german else _adult_file(tmp_path, lines)
    ds = loader(path, include_sensitive=include_sensitive)
    (rows, columns), = seen
    X, names = hstack_encode_columns(rows, columns, ds.s if include_sensitive else None, sex_name)
    assert ds.X.dtype == X.dtype and ds.X.shape == X.shape and ds.X.flags.c_contiguous
    assert ds.X.tobytes() == X.tobytes()
    assert ds.feature_names == names


# ---------------------------------------------------------------------------
# Full UCI files (skipped when the source data is absent)


def test_adult_full_corpus_row_counts(adult_dir):
    ds = load_adult(adult_dir)
    assert ds.meta["n_raw"] in (48842, 48843)
    assert ds.n == 45222  # rows without any '?' field
    assert 0.2 < ds.y.mean() < 0.3
    assert 0.6 < ds.s.mean() < 0.72


def test_german_full_corpus_row_counts(german_file):
    ds = load_german(german_file)
    assert ds.n == 1000
    assert ds.y.sum() == 700
    assert ds.s.sum() == 690


# ---------------------------------------------------------------------------
# Synthetic generator


def test_synthetic_groups_exactly_balanced():
    ds = make_synthetic(n=501, seed=3)
    assert ds.s.sum() == 250
    assert ds.X.shape == (501, 6)


def test_synthetic_feature0_encodes_group():
    ds = make_synthetic(n=200, seed=1)
    np.testing.assert_array_equal(ds.X[:, 0] > 0, ds.s == 1)
    assert np.abs(ds.X[:, 0]).min() >= 0.2


def test_synthetic_label_ignores_feature0():
    ds = make_synthetic(n=400, seed=2)
    np.testing.assert_array_equal(ds.y, (ds.X[:, 1] + ds.X[:, 2] > 0).astype(int))


def test_synthetic_deterministic_per_seed():
    a, b = make_synthetic(seed=9), make_synthetic(seed=9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.s, b.s)
    c = make_synthetic(seed=10)
    assert not np.array_equal(a.X, c.X)


def test_synthetic_label_noise():
    clean = make_synthetic(n=1000, seed=4)
    noisy = make_synthetic(n=1000, seed=4, flip_y=0.2)
    flips = (clean.y != noisy.y).mean()
    assert 0.1 < flips < 0.3


@pytest.mark.parametrize("n,n_noise,flip_y", [
    (4, 0, 0.0), (5, 1, 0.3), (37, 3, 0.0), (200, 7, 0.1), (64, 97, 1.0)])
def test_make_synthetic_matches_the_column_stack_form(n, n_noise, flip_y):
    ds = make_synthetic(n=n, seed=n + n_noise, n_noise=n_noise, flip_y=flip_y)
    X, y, s = column_stack_synthetic(n, n + n_noise, n_noise, flip_y)
    assert ds.X.flags.c_contiguous and ds.X.shape == X.shape and ds.X.dtype == X.dtype
    assert ds.X.tobytes() == X.tobytes()
    assert ds.y.tobytes() == y.tobytes() and ds.y.dtype == y.dtype
    assert ds.s.tobytes() == s.tobytes() and ds.s.dtype == s.dtype


def test_subset_copies_without_sharing_memory():
    ds = make_synthetic(n=50, seed=1)
    sub = ds.subset([3, 1, 4, 1, 5])
    for name in ("X", "y", "s"):
        assert not np.shares_memory(getattr(sub, name), getattr(ds, name))
    np.testing.assert_array_equal(sub.X, ds.X[[3, 1, 4, 1, 5]])
    sub.X[0, 0] = 1e9
    assert ds.X[3, 0] != 1e9


# ---------------------------------------------------------------------------
# Standardization


def _toy_dataset():
    X = np.array([[10.0, 1.0], [12.0, 1.0], [14.0, 1.0], [30.0, 1.0]])
    return Dataset(X=X, y=np.array([0, 1, 0, 1]), s=np.array([0, 1, 0, 1]),
                   feature_names=["a", "onehot"], continuous=["a"])


def test_standardize_uses_train_rows_only():
    ds = standardize(_toy_dataset(), train_idx=[0, 1, 2])
    train_col = ds.X[:3, 0]
    assert abs(train_col.mean()) < 1e-6
    assert abs(train_col.std() - 1.0) < 1e-6
    # held-out row keeps the train transform; it is not re-centered
    assert ds.X[3, 0] > 3.0
    np.testing.assert_array_equal(ds.X[:, 1], np.ones(4))  # not continuous
    assert ds.norm_stats["a"][0] == pytest.approx(12.0)


def test_standardize_constant_column_left_finite():
    ds = _toy_dataset()
    ds.continuous = ["a", "onehot"]
    out = standardize(ds, train_idx=[0, 1, 2, 3])
    assert np.isfinite(out.X).all()
    np.testing.assert_array_equal(out.X[:, 1], np.zeros(4))


def test_standardize_requires_train_rows():
    with pytest.raises(DatasetError):
        standardize(_toy_dataset(), train_idx=[])


def _mixed_dataset(n=60):
    """Continuous columns (one constant) beside a 0/1 column that is not."""
    ds = make_synthetic(n=n, seed=11, n_noise=2)
    X = np.column_stack([ds.X, np.full(n, 3.5), (ds.X[:, 0] > 0).astype(float)])
    names = [f"f{j}" for j in range(ds.d)] + ["const", "flag"]
    return Dataset(X=X, y=ds.y, s=ds.s, feature_names=names, continuous=names[:-1],
                   meta={"source": "test"})


def test_standardize_matches_the_copy_whole_form():
    ds = _mixed_dataset()
    train = np.arange(0, 60, 2)
    out = standardize(ds, train)
    X, stats = copy_whole_standardize(ds.X, ds.feature_names, ds.continuous, train)
    assert out.X.tobytes() == X.tobytes() and out.norm_stats == stats
    assert out.y.tobytes() == ds.y.tobytes() and out.s.tobytes() == ds.s.tobytes()
    assert not np.shares_memory(out.X, ds.X)


def test_standardize_row_sets_equal_subsets_of_the_whole():
    ds = _mixed_dataset()
    raw = ds.X.copy()
    plan = train_val_test_split(ds.n, seed=3, val_frac=0.25)
    whole = standardize(ds, plan.train)
    parts = standardize(ds, plan.train, plan.train, plan.val, [5, 5, 0])
    assert len(parts) == 3
    for part, idx in zip(parts, (plan.train, plan.val, [5, 5, 0])):
        ref = whole.subset(idx)
        for name in ("X", "y", "s"):
            got, want = getattr(part, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert part.norm_stats == ref.norm_stats == whole.norm_stats
        assert part.norm_stats["const"] == (3.5, 1.0)
        assert part.feature_names == ref.feature_names and part.meta == ref.meta
    assert ds.X.tobytes() == raw.tobytes() and ds.norm_stats is None


def test_adult_file_with_a_byte_order_mark_reads_the_same(tmp_path):
    plain, bom = tmp_path / "plain.data", tmp_path / "bom.data"
    plain.write_text(ADULT_TWO_ROWS)
    bom.write_bytes(b"\xef\xbb\xbf" + ADULT_TWO_ROWS.encode())
    a, b = load_adult(plain), load_adult(bom)
    assert a.X.tobytes() == b.X.tobytes() and a.feature_names == b.feature_names
    assert (a.y.tolist(), a.s.tolist()) == (b.y.tolist(), b.s.tolist())


# ---------------------------------------------------------------------------
# Splits, folds, batches


def test_split_sizes_and_disjointness():
    plan = train_val_test_split(10, seed=0, val_frac=0.2)
    assert len(plan.val) == 2 and len(plan.train) == 8
    merged = np.concatenate([plan.train, plan.val])
    assert sorted(merged.tolist()) == list(range(10))


def test_split_deterministic():
    a = train_val_test_split(100, seed=5)
    b = train_val_test_split(100, seed=5)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.val, b.val)
    c = train_val_test_split(100, seed=6)
    assert not np.array_equal(a.train, c.train)


def test_folds_even_sizes():
    folds = make_folds(10, k=5, seed=0)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]


def test_folds_remainder_distributed():
    folds = make_folds(11, k=5, seed=0)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]
    assert len(folds[0]) == 3


def test_folds_cover_everything_disjointly():
    merged = np.concatenate(make_folds(23, k=4, seed=7))
    assert sorted(merged.tolist()) == list(range(23))


def test_fold_train_indices_complement():
    folds = make_folds(10, k=5, seed=3)
    train = fold_train_indices(folds, 2)
    assert len(train) == 8
    assert not set(train.tolist()) & set(folds[2].tolist())


def test_folds_bounds_check():
    with pytest.raises(ValueError):
        make_folds(5, k=1, seed=0)
    with pytest.raises(ValueError):
        make_folds(5, k=6, seed=0)


def test_batches_sizes_and_coverage():
    out = batches(130, 64, seed=0, epoch=0)
    assert [len(b) for b in out] == [64, 64, 2]
    merged = np.concatenate(out)
    assert sorted(merged.tolist()) == list(range(130))


def test_batches_reshuffle_each_epoch():
    e0 = np.concatenate(batches(130, 64, seed=0, epoch=0))
    e1 = np.concatenate(batches(130, 64, seed=0, epoch=1))
    assert not np.array_equal(e0, e1)
    again = np.concatenate(batches(130, 64, seed=0, epoch=1))
    assert np.array_equal(e1, again)


def test_batches_of_one():
    out = batches(5, 1, seed=0, epoch=0)
    assert [len(b) for b in out] == [1, 1, 1, 1, 1]


def test_batches_accept_seed_sequences():
    a = np.concatenate(batches(50, 16, seed=(3, 1), epoch=2))
    b = np.concatenate(batches(50, 16, seed=[3, 1], epoch=2))
    c = np.concatenate(batches(50, 16, seed=(3, 2), epoch=2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batches_reject_bad_sizes():
    with pytest.raises(ValueError):
        batches(10, 0, seed=0, epoch=0)


# ---------------------------------------------------------------------------
# Dataset mechanics


def test_subset_copies_rows():
    ds = make_synthetic(n=20, seed=0)
    sub = ds.subset([0, 3, 5])
    assert sub.n == 3
    sub.X[0, 0] = 99.0
    assert ds.X[0, 0] != 99.0


def test_summary_fields():
    summ = make_synthetic(n=40, seed=0).summary()
    assert summ["n"] == 40
    assert summ["standardized"] is False
    assert summ["source"] == "synthetic"
