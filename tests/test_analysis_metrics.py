"""Tests for repro.analysis.metrics and repro.analysis.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    jain_fairness_index,
    relative_improvement,
    success_rate_histogram,
    success_rate_quantiles,
)
from repro.analysis.stats import (
    _T_975,
    aggregate_scalar,
    aggregate_series,
    confidence_interval,
    downsample,
    t_quantile,
)


class TestJainFairness:
    def test_equal_values_are_perfectly_fair(self):
        assert jain_fairness_index([0.7, 0.7, 0.7]) == pytest.approx(1.0)

    def test_single_winner_gives_one_over_n(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([0.5, -0.1])

    @given(values=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, values):
        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    def test_more_balanced_is_fairer(self):
        assert jain_fairness_index([0.5, 0.5]) > jain_fairness_index([0.9, 0.1])


class TestHistogramAndQuantiles:
    def test_fractions_sum_to_one(self):
        edges, fractions = success_rate_histogram([0.1, 0.5, 0.9, 0.95], bins=10)
        assert len(edges) == 11
        assert sum(fractions) == pytest.approx(1.0)

    def test_empty_input(self):
        _, fractions = success_rate_histogram([], bins=5)
        assert fractions == [0.0] * 5

    def test_values_land_in_correct_bins(self):
        edges, fractions = success_rate_histogram([0.05, 0.95, 0.96], bins=10)
        assert fractions[0] == pytest.approx(1 / 3)
        assert fractions[-1] == pytest.approx(2 / 3)

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            success_rate_histogram([0.5], bins=0)

    def test_quantiles(self):
        quantiles = success_rate_quantiles([0.1, 0.2, 0.3, 0.4, 0.5], quantiles=(0.5,))
        assert quantiles[0.5] == pytest.approx(0.3)

    def test_quantiles_empty(self):
        assert success_rate_quantiles([], quantiles=(0.5,)) == {0.5: 0.0}


class TestRelativeImprovement:
    def test_positive_improvement(self):
        assert relative_improvement(1.2, 1.0) == pytest.approx(0.2)

    def test_negative_improvement(self):
        assert relative_improvement(0.8, 1.0) == pytest.approx(-0.2)

    def test_zero_baseline(self):
        assert relative_improvement(0.0, 0.0) == 0.0
        assert relative_improvement(1.0, 0.0) == float("inf")


class TestScipyFreeStatistics:
    """The table and the numpy expression equal scipy's values bit for bit."""

    def test_t_table_matches_scipy(self):
        from scipy import stats as scipy_stats

        for df, value in _T_975.items():
            assert value == float(scipy_stats.t.ppf(0.975, df))
            assert t_quantile((1.0 + 0.95) / 2.0, df) == value

    def test_t_quantile_falls_back_to_scipy(self):
        from scipy import stats as scipy_stats

        assert t_quantile(0.995, 4) == float(scipy_stats.t.ppf(0.995, 4))
        assert t_quantile(0.975, 40) == float(scipy_stats.t.ppf(0.975, 40))

    def test_confidence_interval_matches_scipy(self, rng):
        from scipy import stats as scipy_stats

        for size in (2, 3, 5, 8, 11, 15):
            values = rng.normal(3.0, 2.0, size=size)
            sem = float(scipy_stats.sem(values))
            assert sem == float(np.std(values, ddof=1) / values.size ** 0.5)
            half = float(sem * scipy_stats.t.ppf(0.975, size - 1))
            mean = float(np.mean(values))
            assert confidence_interval(values) == (mean - half, mean + half)


class TestStats:
    def test_confidence_interval_contains_mean(self):
        values = [1.0, 2.0, 3.0, 4.0]
        low, high = confidence_interval(values)
        assert low <= np.mean(values) <= high

    def test_confidence_interval_single_value(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_confidence_interval_identical_values(self):
        assert confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0)

    def test_confidence_interval_invalid_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval([])
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)

    def test_aggregate_scalar(self):
        aggregate = aggregate_scalar([1.0, 2.0, 3.0])
        assert aggregate.mean == pytest.approx(2.0)
        assert aggregate.count == 3
        assert aggregate.low <= 2.0 <= aggregate.high

    def test_aggregate_scalar_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_scalar([])

    def test_aggregate_series(self):
        means, stds = aggregate_series([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        assert means == [2.0, 3.0, 4.0]
        assert all(s == pytest.approx(np.sqrt(2.0)) for s in stds)

    def test_aggregate_series_truncates_to_shortest(self):
        means, _ = aggregate_series([[1.0, 2.0, 3.0], [1.0, 2.0]])
        assert len(means) == 2

    def test_aggregate_series_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_series([])

    def test_downsample(self):
        series = list(range(100))
        sampled = downsample(series, 5)
        assert len(sampled) == 5
        assert sampled[0] == 0 and sampled[-1] == 99

    def test_downsample_short_series_unchanged(self):
        assert downsample([1.0, 2.0], 10) == [1.0, 2.0]

    def test_downsample_invalid_points(self):
        with pytest.raises(ValueError):
            downsample([1.0], 0)
