import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairstack.metrics import (
    FairnessReport,
    PredictionBatch,
    UndefinedMetricError,
    evaluate,
    threshold_predictions,
)
from oracles import naive_metrics


def batch(y_pred, y_true, s) -> PredictionBatch:
    return PredictionBatch(y_pred=np.array(y_pred), y_true=np.array(y_true),
                           s=np.array(s))


# ---------------------------------------------------------------------------
# statistical parity


def test_dp_opposite_groups():
    b = batch([1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1])
    assert evaluate(b).delta_dp == 1.0


def test_dp_constant_predictor():
    b = batch([1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 1, 1])
    assert evaluate(b).delta_dp == 0.0


def test_dp_two_thirds_vs_one_third():
    b = batch([1, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1])
    assert evaluate(b).delta_dp == pytest.approx(1.0 / 3.0)


def test_dp_missing_group_raises():
    b = batch([1, 0], [1, 0], [0, 0])
    with pytest.raises(UndefinedMetricError) as exc:
        evaluate(b)
    assert "s=1" in str(exc.value)


# ---------------------------------------------------------------------------
# equalized odds


def test_eo_perfect_predictor():
    y = [1, 0, 1, 0, 1, 0]
    b = batch(y, y, [0, 0, 0, 1, 1, 1])
    assert evaluate(b).delta_eo == 0.0


def test_eo_maximally_unfair_is_two():
    # group 0 predicted perfectly, group 1 predicted inverted
    b = batch([1, 0, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1])
    assert evaluate(b).delta_eo == 2.0


def test_eo_sum_of_tpr_and_fpr_gaps():
    # 8 samples: TPRs 1.0 vs 0.5, FPRs 0.5 vs 0.5
    b = batch(
        [1, 1, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert evaluate(b).delta_eo == pytest.approx(0.5)
    assert evaluate(b, eo_mode="max").delta_eo == pytest.approx(0.5)


def test_eo_max_mode_differs_from_sum():
    # TPR gap 0.5, FPR gap 1.0
    b = batch(
        [1, 1, 0, 0, 1, 0, 1, 1],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert evaluate(b, eo_mode="sum").delta_eo == pytest.approx(1.5)
    assert evaluate(b, eo_mode="max").delta_eo == pytest.approx(1.0)


def test_eo_invalid_mode():
    b = batch([1, 0], [1, 0], [0, 1])
    with pytest.raises(ValueError, match="eo_mode"):
        evaluate(b, eo_mode="mean")


def test_eo_empty_cell_error_names_cell():
    # group 1 has no y=0 samples: its FPR, and so eo, is undefined
    rep = evaluate(batch([1, 0, 1, 1], [1, 0, 1, 1], [0, 0, 1, 1]))
    assert rep.delta_eo is None
    assert rep.fpr_s1 is None
    assert None not in (rep.fpr_s0, rep.tpr_s0, rep.tpr_s1)


# ---------------------------------------------------------------------------
# equal opportunity


def test_eopp_perfect_predictor():
    y = [1, 0, 1, 0]
    assert evaluate(batch(y, y, [0, 0, 1, 1])).delta_eopp == 0.0


def test_eopp_opposite_tprs():
    b = batch([1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1])
    assert evaluate(b).delta_eopp == 1.0


def test_eopp_three_quarters_vs_half():
    b = batch(
        [1, 1, 1, 0, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert evaluate(b).delta_eopp == pytest.approx(0.25)


def test_eopp_needs_positives_in_both_groups():
    rep = evaluate(batch([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1]))
    assert rep.delta_eopp is None
    assert rep.tpr_s1 is None and rep.tpr_s0 is not None


def test_each_gap_names_its_own_first_empty_cell():
    # group 0 has no y=0 rows and group 1 no y=1 rows: both cells read None,
    # and with them eo and eopp, while dp needs neither
    rep = evaluate(batch([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]))
    assert (rep.fpr_s0, rep.tpr_s1) == (None, None)
    assert rep.tpr_s0 is not None and rep.fpr_s1 is not None
    assert rep.delta_eo is None and rep.delta_eopp is None
    assert rep.delta_dp == 0.0


# ---------------------------------------------------------------------------
# evaluate / FairnessReport


def test_evaluate_perfect_predictor():
    y = [1, 0, 1, 0]
    rep = evaluate(batch(y, y, [0, 0, 1, 1]))
    assert rep.accuracy == 1.0
    assert rep.delta_dp == 0.0
    assert rep.delta_eo == 0.0
    assert rep.delta_eopp == 0.0


def test_evaluate_all_zeros_predictor():
    y_true = [1, 0, 0, 1, 0, 0]
    rep = evaluate(batch([0] * 6, y_true, [0, 0, 0, 1, 1, 1]))
    assert rep.delta_dp == 0.0
    assert rep.delta_eopp == 0.0
    assert rep.accuracy == pytest.approx(4.0 / 6.0)  # base rate of y=0


def test_evaluate_undefined_gaps_become_none():
    # no y=1 rows in group 1: eo and eopp undefined, dp still fine
    rep = evaluate(batch([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1]))
    assert rep.delta_eo is None
    assert rep.delta_eopp is None
    assert rep.delta_dp == pytest.approx(0.0)
    assert rep.tpr_s1 is None


def test_evaluate_report_is_internally_consistent():
    rng = np.random.default_rng(0)
    b = batch(rng.integers(0, 2, 40), rng.integers(0, 2, 40), rng.integers(0, 2, 40))
    rep = evaluate(b)
    assert rep.delta_dp == pytest.approx(abs(rep.pos_rate_s0 - rep.pos_rate_s1))
    assert rep.delta_eopp == pytest.approx(abs(rep.tpr_s0 - rep.tpr_s1))
    assert rep.delta_eo == pytest.approx(
        abs(rep.tpr_s0 - rep.tpr_s1) + abs(rep.fpr_s0 - rep.fpr_s1)
    )
    assert rep.n_s0 + rep.n_s1 == 40


def test_report_json_keys_are_stable():
    rep = evaluate(batch([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1]))
    keys = set(rep.to_json())
    assert keys == {
        "accuracy", "delta_dp", "delta_eo", "delta_eopp",
        "tpr_s0", "tpr_s1", "fpr_s0", "fpr_s1",
        "pos_rate_s0", "pos_rate_s1", "n_s0", "n_s1",
    }


def test_fifty_sample_batch_matches_naive_recount():
    rng = np.random.default_rng(42)
    yp = rng.integers(0, 2, 50)
    yt = rng.integers(0, 2, 50)
    s = rng.integers(0, 2, 50)
    expected = naive_metrics(yp.tolist(), yt.tolist(), s.tolist())
    rep = evaluate(batch(yp, yt, s))
    for key in ("accuracy", "delta_dp", "delta_eo", "delta_eopp"):
        assert getattr(rep, key) == pytest.approx(expected[key])


# ---------------------------------------------------------------------------
# plumbing


def test_threshold_predictions_half_open():
    np.testing.assert_array_equal(
        threshold_predictions([0.4, 0.5, 0.6]), [0, 1, 1]
    )


def test_threshold_custom():
    np.testing.assert_array_equal(
        threshold_predictions([0.1, 0.3], thr=0.2), [0, 1]
    )


def test_batch_rejects_length_mismatch():
    with pytest.raises(ValueError) as exc:
        batch([1, 0], [1, 0, 1], [0, 1])
    assert "length mismatch" in str(exc.value)


def test_batch_rejects_nonbinary():
    with pytest.raises(ValueError):
        batch([1, 2], [1, 0], [0, 1])


@pytest.mark.parametrize("column", range(3))
def test_batch_rejects_fractional_values(column):
    # checked as given, not after a cast to int that would read 0.5 as 0,
    # nan as some integer or the string "1" as 1
    for bad in (0.5, np.nan, "1"):
        cols = [[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1]]
        cols[column] = [bad, 1, 0, 1]
        with pytest.raises(ValueError, match="0/1"):
            batch(*cols)


def test_batch_accepts_integral_floats_and_bools():
    b = batch([1.0, 0.0], [True, False], [0, 1])
    assert b.y_pred.dtype == b.y_true.dtype == np.int64
    np.testing.assert_array_equal(b.y_true, [1, 0])


def test_batch_rejects_empty():
    with pytest.raises(ValueError):
        batch([], [], [])


def test_group_rates_counts():
    b = batch([1, 1, 0, 0, 1], [1, 0, 1, 0, 1], [0, 0, 0, 1, 1])
    report = evaluate(b)
    assert (report.n_s0, report.n_s1) == (3, 2)
    assert report.pos_rate_s0 == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# properties

sample_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    min_size=2, max_size=40,
)


def _arrays(samples):
    arr = np.array(samples)
    return arr[:, 0], arr[:, 1], arr[:, 2]


@settings(max_examples=200, deadline=None)
@given(sample_lists)
def test_property_matches_naive_oracle(samples):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    expected = naive_metrics(yp.tolist(), yt.tolist(), s.tolist())
    rep = evaluate(batch(yp, yt, s))
    assert rep.delta_dp == pytest.approx(expected["delta_dp"])
    for key in ("delta_eo", "delta_eopp"):   # None exactly where the oracle's is
        if expected[key] is None:
            assert getattr(rep, key) is None
        else:
            assert getattr(rep, key) == pytest.approx(expected[key])


@settings(max_examples=150, deadline=None)
@given(sample_lists)
def test_property_group_relabel_symmetry(samples):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    a = evaluate(batch(yp, yt, s))
    b = evaluate(batch(yp, yt, 1 - s))
    assert a.delta_dp == pytest.approx(b.delta_dp)
    for key in ("delta_eo", "delta_eopp"):
        if getattr(a, key) is None:
            assert getattr(b, key) is None
        else:
            assert getattr(a, key) == pytest.approx(getattr(b, key))


@settings(max_examples=150, deadline=None)
@given(sample_lists, st.randoms(use_true_random=False))
def test_property_permutation_invariance(samples, rand):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    perm = list(range(len(yp)))
    rand.shuffle(perm)
    a = evaluate(batch(yp, yt, s))
    b = evaluate(batch(yp[perm], yt[perm], s[perm]))
    assert a.delta_dp == pytest.approx(b.delta_dp)
    assert a.accuracy == pytest.approx(b.accuracy)


@settings(max_examples=150, deadline=None)
@given(sample_lists)
def test_property_gap_ranges_and_dominance(samples):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    rep = evaluate(batch(yp, yt, s))
    assert 0.0 <= rep.delta_dp <= 1.0
    eo, eopp = rep.delta_eo, rep.delta_eopp
    if eo is None:
        return
    assert 0.0 <= eopp <= 1.0
    assert 0.0 <= eo <= 2.0
    assert eopp <= eo + 1e-12
    if eo == 0.0:
        assert eopp == 0.0
