"""Tests for repro.experiments.runner (multi-trial comparisons)."""

import pytest

from repro.api.registry import default_registry
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ComparisonResult, run_comparison


@pytest.fixture(scope="module")
def tiny_comparison():
    """One shared tiny comparison run (2 trials) reused by several tests."""
    config = ExperimentConfig.tiny().with_overrides(horizon=6, trials=2)
    return run_comparison(config, seed=11)


class TestRunComparison:
    def test_trials_and_policies(self, tiny_comparison):
        assert len(tiny_comparison.trials) == 2
        assert tiny_comparison.policy_names == ["OSCAR", "MA", "MF"]

    def test_policies_see_identical_workload_within_a_trial(self, tiny_comparison):
        for trial in tiny_comparison.trials:
            request_series = [
                [record.num_requests for record in result.records] for result in trial.values()
            ]
            assert request_series[0] == request_series[1] == request_series[2]

    def test_trials_use_different_workloads(self, tiny_comparison):
        first = [record.num_requests for record in tiny_comparison.trials[0]["OSCAR"].records]
        second = [record.num_requests for record in tiny_comparison.trials[1]["OSCAR"].records]
        assert first != second

    def test_results_for(self, tiny_comparison):
        results = tiny_comparison.results_for("OSCAR")
        assert len(results) == 2
        assert all(result.policy_name == "OSCAR" for result in results)

    def test_summary_structure(self, tiny_comparison):
        summary = tiny_comparison.summary()
        assert set(summary.keys()) == {"OSCAR", "MA", "MF"}
        for metrics in summary.values():
            assert "average_success_rate" in metrics
            assert metrics["average_success_rate"].count == 2
            assert 0.0 <= metrics["average_success_rate"].mean <= 1.0

    def test_mean_series_lengths(self, tiny_comparison):
        series = tiny_comparison.mean_series("OSCAR", "cumulative_cost")
        assert len(series) == 6
        assert series == sorted(series)  # cumulative costs are non-decreasing

    def test_mean_series_unknown_kind(self, tiny_comparison):
        with pytest.raises(ValueError):
            tiny_comparison.mean_series("OSCAR", "bogus")

    def test_success_probability_pool(self, tiny_comparison):
        pool = tiny_comparison.success_probability_pool("MF")
        assert len(pool) > 0
        assert all(0.0 <= value <= 1.0 for value in pool)

    def test_custom_policy_factory(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        comparison = run_comparison(
            config,
            policy_factory=lambda cfg: [
                default_registry.make("oscar", cfg),
                default_registry.make("shortest-uniform", cfg),
            ],
            seed=3,
        )
        assert comparison.policy_names == ["OSCAR", "ShortestUniform"]

    def test_reproducible_given_seed(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        a = run_comparison(config, seed=21)
        b = run_comparison(config, seed=21)
        assert a.trials[0]["OSCAR"].per_slot_costs() == b.trials[0]["OSCAR"].per_slot_costs()

    def test_aggregate_metric_custom(self, tiny_comparison):
        aggregate = tiny_comparison.aggregate_metric("OSCAR", lambda r: r.total_cost)
        assert aggregate.count == 2
        assert aggregate.mean >= 0
