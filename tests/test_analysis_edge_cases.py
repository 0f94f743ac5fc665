"""Edge cases of the analysis helpers: empty runs, all-zero data, single slots."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.metrics import (
    jain_fairness_index,
    relative_improvement,
    success_rate_histogram,
    success_rate_quantiles,
)
from repro.analysis.stats import (
    aggregate_scalar,
    aggregate_series,
    confidence_interval,
    downsample,
    merge_stat_mappings,
)
from repro.simulation.results import SimulationResult, SlotColumns, SlotRecord


# --------------------------------------------------------------------- #
# metrics.py
# --------------------------------------------------------------------- #
class TestFairness:
    def test_all_zero_is_perfectly_fair(self):
        assert jain_fairness_index([0.0, 0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            jain_fairness_index([])

    def test_single_value(self):
        assert jain_fairness_index([0.7]) == pytest.approx(1.0)

    def test_nan_rejected_not_propagated(self):
        with pytest.raises(ValueError, match="finite"):
            jain_fairness_index([0.5, math.nan])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            jain_fairness_index([0.5, math.inf])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            jain_fairness_index([0.5, -0.1])


class TestHistogram:
    def test_empty_input_gives_zero_fractions(self):
        edges, fractions = success_rate_histogram([], bins=4)
        assert len(edges) == 5
        assert fractions == [0.0] * 4

    def test_fractions_sum_to_one(self):
        _, fractions = success_rate_histogram([0.1, 0.5, 0.9, 0.95], bins=10)
        assert sum(fractions) == pytest.approx(1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            success_rate_histogram([0.5, math.nan])


class TestQuantiles:
    def test_empty_gives_zeros(self):
        assert success_rate_quantiles([]) == {q: 0.0 for q in (0.1, 0.25, 0.5, 0.75, 0.9)}

    def test_single_value_is_every_quantile(self):
        assert set(success_rate_quantiles([0.4]).values()) == {0.4}

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            success_rate_quantiles([0.5, math.nan])


class TestRelativeImprovement:
    def test_zero_baseline_zero_candidate(self):
        assert relative_improvement(0.0, 0.0) == 0.0

    def test_zero_baseline_positive_candidate(self):
        assert relative_improvement(1.0, 0.0) == math.inf

    def test_negative_baseline(self):
        assert relative_improvement(-1.0, -2.0) == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# stats.py
# --------------------------------------------------------------------- #
class TestAggregation:
    def test_empty_scalar_raises(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_scalar([])

    def test_single_trial_has_zero_spread(self):
        aggregate = aggregate_scalar([2.5])
        assert aggregate.mean == 2.5
        assert aggregate.std == 0.0
        assert aggregate.half_width == 0.0
        assert aggregate.low == aggregate.high == 2.5

    def test_identical_trials_have_zero_width(self):
        aggregate = aggregate_scalar([1.0, 1.0, 1.0])
        assert aggregate.half_width == 0.0

    def test_confidence_interval_empty_raises(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_confidence_bounds_bracket_mean(self):
        low, high = confidence_interval([1.0, 2.0, 3.0])
        assert low < 2.0 < high

    def test_series_single_slot_horizon(self):
        means, stds = aggregate_series([[3.0], [5.0]])
        assert means == [4.0]
        assert stds == [pytest.approx(np.std([3.0, 5.0], ddof=1))]

    def test_series_unequal_lengths_truncate(self):
        means, _ = aggregate_series([[1.0, 2.0, 3.0], [1.0]])
        assert means == [1.0]

    def test_series_zero_length_entry(self):
        assert aggregate_series([[], [1.0]]) == ([], [])

    def test_downsample_short_series_passthrough(self):
        assert downsample([1.0, 2.0], points=10) == [1.0, 2.0]

    def test_merge_stat_mappings_empty_is_none(self):
        assert merge_stat_mappings([]) is None
        assert merge_stat_mappings([None, None]) is None


# --------------------------------------------------------------------- #
# SimulationResult degenerate shapes
# --------------------------------------------------------------------- #
def _empty_result():
    return SimulationResult(
        policy_name="oscar", horizon=0, total_budget=100.0, columns=SlotColumns.from_records(())
    )


def _zero_slot():
    return SlotRecord(
        t=0,
        num_requests=0,
        num_served=0,
        cost=0,
        utility=0.0,
        success_probabilities=(),
        realized_successes=(),
        queue_length=0.0,
    )


class TestEmptyRun:
    def test_aggregates_are_defined(self):
        result = _empty_result()
        assert result.total_cost == 0.0
        assert result.average_success_rate() == 0.0
        assert result.realized_success_rate() == 0.0
        assert result.served_fraction() == 1.0
        assert result.running_average_success_rate() == []
        assert result.average_utility() == -math.inf

    def test_zero_request_slot_rates(self):
        record = _zero_slot()
        assert record.mean_success_probability == 0.0
        assert record.realized_success_rate == 0.0
        assert record.delivered_success_rate == 0.0

    def test_single_slot_running_average(self):
        result = SimulationResult(
            policy_name="oscar",
            horizon=1,
            total_budget=10.0,
            columns=SlotColumns.from_records((_zero_slot(),)),
        )
        assert result.running_average_success_rate() == [0.0]
        assert not any(
            math.isnan(value) for value in result.running_average_utility()
        )

    def test_zero_budget_utilisation(self):
        result = SimulationResult(
            policy_name="oscar", horizon=0, total_budget=0.0, columns=SlotColumns.from_records(())
        )
        assert result.budget_utilisation == 0.0
