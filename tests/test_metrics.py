import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairstack.metrics import (
    FairnessReport,
    PredictionBatch,
    UndefinedMetricError,
    accuracy,
    delta_dp,
    delta_eo,
    delta_eopp,
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
    assert delta_dp(b) == 1.0


def test_dp_constant_predictor():
    b = batch([1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 1, 1])
    assert delta_dp(b) == 0.0


def test_dp_two_thirds_vs_one_third():
    b = batch([1, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1])
    assert delta_dp(b) == pytest.approx(1.0 / 3.0)


def test_dp_missing_group_raises():
    b = batch([1, 0], [1, 0], [0, 0])
    with pytest.raises(UndefinedMetricError) as exc:
        delta_dp(b)
    assert "s=1" in str(exc.value)


# ---------------------------------------------------------------------------
# equalized odds


def test_eo_perfect_predictor():
    y = [1, 0, 1, 0, 1, 0]
    b = batch(y, y, [0, 0, 0, 1, 1, 1])
    assert delta_eo(b) == 0.0


def test_eo_maximally_unfair_is_two():
    # group 0 predicted perfectly, group 1 predicted inverted
    b = batch([1, 0, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1])
    assert delta_eo(b) == 2.0


def test_eo_sum_of_tpr_and_fpr_gaps():
    # 8 samples: TPRs 1.0 vs 0.5, FPRs 0.5 vs 0.5
    b = batch(
        [1, 1, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert delta_eo(b) == pytest.approx(0.5)
    assert delta_eo(b, mode="max") == pytest.approx(0.5)


def test_eo_max_mode_differs_from_sum():
    # TPR gap 0.5, FPR gap 1.0
    b = batch(
        [1, 1, 0, 0, 1, 0, 1, 1],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert delta_eo(b, mode="sum") == pytest.approx(1.5)
    assert delta_eo(b, mode="max") == pytest.approx(1.0)


def test_eo_invalid_mode():
    b = batch([1, 0], [1, 0], [0, 1])
    with pytest.raises(ValueError):
        delta_eo(b, mode="mean")
    with pytest.raises(ValueError, match="eo_mode"):
        evaluate(b, eo_mode="mean")


def test_eo_empty_cell_error_names_cell():
    # group 1 has no y=0 samples
    b = batch([1, 0, 1, 1], [1, 0, 1, 1], [0, 0, 1, 1])
    with pytest.raises(UndefinedMetricError) as exc:
        delta_eo(b)
    assert "(s=1, y=0)" in str(exc.value)


# ---------------------------------------------------------------------------
# equal opportunity


def test_eopp_perfect_predictor():
    y = [1, 0, 1, 0]
    assert delta_eopp(batch(y, y, [0, 0, 1, 1])) == 0.0


def test_eopp_opposite_tprs():
    b = batch([1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1])
    assert delta_eopp(b) == 1.0


def test_eopp_three_quarters_vs_half():
    b = batch(
        [1, 1, 1, 0, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1],
    )
    assert delta_eopp(b) == pytest.approx(0.25)


def test_eopp_needs_positives_in_both_groups():
    b = batch([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1])
    with pytest.raises(UndefinedMetricError) as exc:
        delta_eopp(b)
    assert "(s=1, y=1)" in str(exc.value)


def test_each_gap_names_its_own_first_empty_cell():
    # group 0 has no y=0 rows and group 1 no y=1 rows: eo stops at (s=0, y=0),
    # while eopp, which needs no y=0 row, stops at (s=1, y=1)
    b = batch([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1])
    with pytest.raises(UndefinedMetricError, match=re.escape("(s=0, y=0)")):
        delta_eo(b)
    with pytest.raises(UndefinedMetricError, match=re.escape("(s=1, y=1)")):
        delta_eopp(b)


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
    b = batch(yp, yt, s)
    assert accuracy(b) == pytest.approx(expected["accuracy"])
    assert delta_dp(b) == pytest.approx(expected["delta_dp"])
    assert delta_eo(b) == pytest.approx(expected["delta_eo"])
    assert delta_eopp(b) == pytest.approx(expected["delta_eopp"])


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
    # checked as given, not after a cast to int that would read 0.5 as 0
    cols = [[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1]]
    cols[column] = [0.5, 1, 0, 1]
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
    b = batch(yp, yt, s)
    assert delta_dp(b) == pytest.approx(expected["delta_dp"])
    if expected["delta_eopp"] is not None:
        assert delta_eopp(b) == pytest.approx(expected["delta_eopp"])
    if expected["delta_eo"] is not None:
        assert delta_eo(b) == pytest.approx(expected["delta_eo"])


@settings(max_examples=150, deadline=None)
@given(sample_lists)
def test_property_group_relabel_symmetry(samples):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    a = batch(yp, yt, s)
    b = batch(yp, yt, 1 - s)
    assert delta_dp(a) == pytest.approx(delta_dp(b))
    try:
        assert delta_eo(a) == pytest.approx(delta_eo(b))
        assert delta_eopp(a) == pytest.approx(delta_eopp(b))
    except UndefinedMetricError:
        pass


@settings(max_examples=150, deadline=None)
@given(sample_lists, st.randoms(use_true_random=False))
def test_property_permutation_invariance(samples, rand):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    perm = list(range(len(yp)))
    rand.shuffle(perm)
    a = batch(yp, yt, s)
    b = batch(yp[perm], yt[perm], s[perm])
    assert delta_dp(a) == pytest.approx(delta_dp(b))
    assert accuracy(a) == pytest.approx(accuracy(b))


@settings(max_examples=150, deadline=None)
@given(sample_lists)
def test_property_gap_ranges_and_dominance(samples):
    yp, yt, s = _arrays(samples)
    assume(len(np.unique(s)) == 2)
    b = batch(yp, yt, s)
    assert 0.0 <= delta_dp(b) <= 1.0
    try:
        eo = delta_eo(b)
    except UndefinedMetricError:
        return
    eopp = delta_eopp(b)
    assert 0.0 <= eopp <= 1.0
    assert 0.0 <= eo <= 2.0
    assert eopp <= eo + 1e-12
    if eo == 0.0:
        assert eopp == 0.0
