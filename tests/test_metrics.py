import numpy as np
import pytest

from glsae.metrics import (
    FitScore,
    MetricError,
    aggregate,
    best_model_counts,
    discrepancy_ratio,
    score,
)


def test_exact_scores_zero_when_equal():
    s = score([0.2, 0.3], [0.2, 0.3])
    assert (s.arb, s.asrb, s.aad, s.asd) == (0.0, 0.0, 0.0, 0.0)


def test_single_area_worked_example():
    s = score([0.30], [0.25])
    assert s.arb == pytest.approx(0.2)
    assert s.asrb == pytest.approx(0.04)
    assert s.aad == pytest.approx(0.05)
    assert s.asd == pytest.approx(0.0025)


def test_zero_truth_raises():
    with pytest.raises(MetricError):
        score([0.1, 0.2], [0.0, 0.2])


def test_negative_truth_counted_and_signed():
    s = score([0.1, 0.2], [-0.1, 0.2])
    assert s.n_nonpositive_truth == 1
    # the signed denominator makes this contribution negative: (|0.2|)/(-0.1)
    assert s.arb == pytest.approx((abs(0.2) / -0.1 + 0.0) / 2)


def test_scale_equivariance():
    est = np.array([0.21, 0.33, 0.26])
    tru = np.array([0.25, 0.30, 0.24])
    s1 = score(est, tru)
    s2 = score(3.0 * est, 3.0 * tru)
    assert s2.arb == pytest.approx(s1.arb)
    assert s2.asrb == pytest.approx(s1.asrb)
    assert s2.aad == pytest.approx(3.0 * s1.aad)
    assert s2.asd == pytest.approx(9.0 * s1.asd)


def test_jensen_direction_single_area():
    s = score([0.29], [0.25])
    assert s.asrb >= s.arb**2 - 1e-15


def test_aggregate_medians():
    scores = [FitScore(v, v, v, v) for v in (1.0, 2.0, 3.0)]
    assert aggregate(scores).arb == 2.0
    scores = [FitScore(v, v, v, v) for v in (1.0, 2.0, 3.0, 10.0)]
    assert aggregate(scores).arb == 2.5  # linear interpolation on even counts
    assert aggregate([FitScore(0.7, 0.7, 0.7, 0.7)] * 5).arb == 0.7
    with pytest.raises(MetricError):
        aggregate([])


def test_discrepancy_ratio_identity_and_errors():
    table = {1: FitScore(0.2, 0.04, 0.05, 0.0025), 2: FitScore(0.4, 0.08, 0.02, 0.001)}
    same = discrepancy_ratio(table, table)
    assert all(same.ratio(m, r) == 1.0 for m in ("arb", "asrb") for r in (1, 2))
    with pytest.raises(MetricError):
        discrepancy_ratio(table, {1: table[1]})
    zero = {1: FitScore(0.0, 0.1, 0.1, 0.1), 2: FitScore(0.1, 0.1, 0.1, 0.1)}
    with pytest.raises(MetricError):
        discrepancy_ratio(table, zero)


def test_discrepancy_ratio_stats():
    model = {r: FitScore(0.1 * r, 0.1, 0.1, 0.1) for r in range(1, 5)}
    base = {r: FitScore(0.2, 0.1, 0.1, 0.1) for r in range(1, 5)}
    rs = discrepancy_ratio(model, base)
    assert rs.ratio("arb", 1) == pytest.approx(0.5)
    assert rs.stats["arb"].minimum == pytest.approx(0.5)
    assert rs.stats["arb"].maximum == pytest.approx(2.0)
    assert rs.stats["arb"].median == pytest.approx(1.25)
    assert rs.stats["arb"].mean == pytest.approx(1.25)


def test_best_model_counts_dominance_and_ties():
    dominant = {r: 0.5 for r in range(1, 7)}
    weak = {r: 0.9 for r in range(1, 7)}
    counts = best_model_counts({"m1a": dominant, "m1b": weak})
    assert counts.counts == {"m1a": 6, "m1b": 0}
    assert counts.ties == ()

    tied = {1: 0.5, 2: 0.7}
    other = {1: 0.5, 2: 0.9}
    counts = best_model_counts({"x": tied, "y": other})
    assert counts.counts == {"x": 2, "y": 1}
    assert counts.ties == ((1, ("x", "y")),)

    with pytest.raises(MetricError):
        best_model_counts({"only": {1: 0.5}})
