"""Tests for repro.simulation.results."""

import math

import pytest

from repro.simulation.results import SimulationResult, SlotColumns, SlotRecord


def make_record(t=0, requests=2, served=2, cost=6, utility=-0.2, probabilities=(0.9, 0.8), realized=(True, False), queue=None):
    return SlotRecord(
        t=t,
        num_requests=requests,
        num_served=served,
        cost=cost,
        utility=utility,
        success_probabilities=tuple(probabilities),
        realized_successes=tuple(realized),
        queue_length=queue,
    )


def make_result(records, budget=20.0):
    return SimulationResult(
        policy_name="TEST",
        horizon=len(records),
        total_budget=budget,
        columns=SlotColumns.from_records(tuple(records)),
    )


class TestSlotRecord:
    def test_unserved_count(self):
        record = make_record(requests=3, served=2)
        assert record.num_unserved == 1

    def test_mean_success_counts_unserved_as_zero(self):
        record = make_record(requests=4, served=2, probabilities=(1.0, 0.5))
        assert record.mean_success_probability == pytest.approx(1.5 / 4)

    def test_mean_success_empty_slot(self):
        record = make_record(requests=0, served=0, probabilities=(), realized=())
        assert record.mean_success_probability == 0.0
        assert record.realized_success_rate == 0.0

    def test_realized_success_rate(self):
        record = make_record(requests=2, served=2, realized=(True, False))
        assert record.realized_success_rate == pytest.approx(0.5)


class TestSimulationResultSeries:
    def test_cumulative_costs(self):
        result = make_result([make_record(t=0, cost=3), make_record(t=1, cost=5)])
        assert result.cumulative_costs() == [3.0, 8.0]
        assert result.per_slot_costs() == [3, 5]

    def test_running_average_utility(self):
        result = make_result([make_record(t=0, utility=-1.0), make_record(t=1, utility=-3.0)])
        assert result.running_average_utility() == [pytest.approx(-1.0), pytest.approx(-2.0)]

    def test_running_average_success_rate(self):
        result = make_result(
            [
                make_record(t=0, requests=2, probabilities=(1.0, 1.0), realized=(True, True)),
                make_record(t=1, requests=2, probabilities=(0.0, 0.0), realized=(False, False)),
            ]
        )
        assert result.running_average_success_rate() == [pytest.approx(1.0), pytest.approx(0.5)]

    def test_queue_lengths(self):
        result = make_result([make_record(t=0, queue=5.0), make_record(t=1, queue=7.5)])
        assert result.queue_lengths() == [5.0, 7.5]


class TestSimulationResultAggregates:
    def test_total_cost_and_violation(self):
        result = make_result([make_record(cost=15), make_record(cost=10)], budget=20.0)
        assert result.total_cost == 25.0
        assert result.budget_violation == pytest.approx(5.0)
        assert result.budget_utilisation == pytest.approx(1.25)

    def test_no_violation_under_budget(self):
        result = make_result([make_record(cost=5)], budget=20.0)
        assert result.budget_violation == 0.0

    def test_average_utility_ignores_infinite_slots(self):
        result = make_result(
            [make_record(utility=-1.0), make_record(utility=float("-inf"))]
        )
        assert result.average_utility() == pytest.approx(-1.0)

    def test_average_success_rate_includes_unserved(self):
        result = make_result(
            [make_record(requests=2, served=1, probabilities=(0.8,), realized=(True,))]
        )
        assert result.average_success_rate() == pytest.approx(0.4)

    def test_realized_success_rate(self):
        result = make_result(
            [
                make_record(requests=2, realized=(True, True)),
                make_record(requests=2, realized=(False, True)),
            ]
        )
        assert result.realized_success_rate() == pytest.approx(0.75)

    def test_all_success_probabilities_with_unserved(self):
        result = make_result(
            [make_record(requests=3, served=2, probabilities=(0.9, 0.8))]
        )
        assert sorted(result.all_success_probabilities()) == [0.0, 0.8, 0.9]
        assert sorted(result.all_success_probabilities(include_unserved=False)) == [0.8, 0.9]

    def test_served_fraction(self):
        result = make_result([make_record(requests=4, served=3)])
        assert result.served_fraction() == pytest.approx(0.75)

    def test_summary_keys(self):
        summary = make_result([make_record()]).summary()
        assert {
            "average_utility",
            "average_success_rate",
            "realized_success_rate",
            "total_cost",
            "budget_utilisation",
            "budget_violation",
            "served_fraction",
        } <= set(summary.keys())

    def test_zero_budget_utilisation(self):
        result = make_result([make_record(cost=0)], budget=0.0)
        assert result.budget_utilisation == 0.0


class TestWallTime:
    def stamped(self, t, start, end):
        return SlotRecord(
            t=t,
            num_requests=1,
            num_served=1,
            cost=1,
            utility=0.5,
            success_probabilities=(0.5,),
            slot_start_s=start,
            slot_end_s=end,
        )

    def test_span_from_stamps(self):
        result = make_result([self.stamped(0, 0.0, 0.7), self.stamped(1, 0.7, 1.4)])
        assert result.wall_time_s() == pytest.approx(1.4)

    def test_none_without_stamps(self):
        result = make_result([make_record(t=0), make_record(t=1)])
        assert result.wall_time_s() is None

    def test_partial_stamps_use_stamped_slots(self):
        result = make_result([make_record(t=0), self.stamped(1, 0.7, 1.4)])
        assert result.wall_time_s() == pytest.approx(0.7)

    def test_empty_result_is_none(self):
        assert make_result([]).wall_time_s() is None
