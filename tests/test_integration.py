"""End-to-end integration tests: the paper's headline behaviour, in miniature.

These tests run the full pipeline (topology → workload trace → policies →
slotted simulation → metrics) at a scale small enough for CI and assert the
qualitative findings of the paper's evaluation section, plus the internal
consistency guarantees that every layer must provide to every other layer.
"""

import math

import pytest

from repro.api import compare, make_policy
from repro.analysis.theory import (
    delta_optimality_gap,
    drift_constant_bound,
    theorem1_violation_bound,
)
from repro.experiments.config import ExperimentConfig
from repro.simulation.engine import SlottedSimulator


@pytest.fixture(scope="module")
def integration_config():
    """A budget-constrained configuration: C/T = 25 with up to 4 requests/slot."""
    return ExperimentConfig(
        num_nodes=10,
        horizon=15,
        total_budget=375.0,
        trials=1,
        max_pairs=4,
        gibbs_iterations=15,
        num_candidate_routes=3,
        base_seed=321,
    )


@pytest.fixture(scope="module")
def comparison(integration_config):
    return compare(integration_config, seed=77)


class TestPaperHeadlineFindings:
    def test_oscar_beats_myopic_fixed_in_utility_and_success(self, comparison):
        summary = comparison.summary()
        assert (
            summary["OSCAR"]["average_success_rate"].mean
            >= summary["MF"]["average_success_rate"].mean - 0.01
        )
        assert (
            summary["OSCAR"]["average_utility"].mean
            >= summary["MF"]["average_utility"].mean - 0.02
        )

    def test_oscar_spends_at_least_as_much_as_mf(self, comparison):
        """MF's fixed per-slot cap strands budget that OSCAR re-deploys."""
        summary = comparison.summary()
        assert summary["OSCAR"]["total_cost"].mean >= summary["MF"]["total_cost"].mean - 1e-9

    def test_every_policy_respects_capacity_and_serves_requests(self, comparison):
        for trial in comparison.trials:
            for result in trial.values():
                assert result.served_fraction() > 0.9
                for record in result.records:
                    assert record.cost >= record.num_served

    def test_oscar_budget_violation_is_small(self, comparison, integration_config):
        summary = comparison.summary()
        violation = summary["OSCAR"]["budget_violation"].mean
        assert violation <= 0.15 * integration_config.total_budget

    def test_oscar_violation_within_theorem1_bound(self, comparison, integration_config):
        """The measured time-averaged violation respects Theorem 1 (loose bound)."""
        config = integration_config
        results = comparison.results_for("OSCAR")
        max_slot_cost = max(max(result.per_slot_costs()) for result in results)
        bound = theorem1_violation_bound(
            horizon=config.horizon,
            initial_queue=config.initial_queue,
            trade_off_v=config.trade_off_v,
            max_pairs=config.max_pairs,
            max_route_length=6,
            min_slot_success=0.3,
            drift_constant=drift_constant_bound(max_slot_cost, config.per_slot_budget),
        )
        for result in results:
            measured = (result.total_cost - config.total_budget) / config.horizon
            assert measured <= bound + 1e-9

    def test_proportional_fairness_reflected_in_distribution(self, comparison):
        """OSCAR's per-request success rates are no less fair than MF's."""
        from repro.analysis.metrics import jain_fairness_index

        def pooled(name):
            return [
                probability
                for result in comparison.results_for(name)
                for probability in result.all_success_probabilities(include_unserved=True)
            ]

        oscar = jain_fairness_index(pooled("OSCAR"))
        mf = jain_fairness_index(pooled("MF"))
        assert oscar >= mf - 0.02


class TestCrossLayerConsistency:
    def test_recorded_utility_matches_success_probabilities(self, comparison):
        """For every slot, utility == Σ log(success probability of served pairs)."""
        for result in comparison.results_for("OSCAR"):
            for record in result.records:
                if record.num_served == 0:
                    continue
                expected = sum(math.log(p) for p in record.success_probabilities if p > 0)
                if any(p == 0 for p in record.success_probabilities):
                    assert record.utility == float("-inf")
                else:
                    assert record.utility == pytest.approx(expected, rel=1e-9)

    def test_realized_success_rate_tracks_analytic_rate(self, comparison):
        """Monte-Carlo realisations agree with the analytic probabilities in aggregate."""
        for name in comparison.lineup:
            for result in comparison.results_for(name):
                analytic = result.average_success_rate()
                realized = result.realized_success_rate()
                assert realized == pytest.approx(analytic, abs=0.12)

    def test_cumulative_cost_equals_sum_of_slot_costs(self, comparison):
        for result in comparison.results_for("MA"):
            assert result.cumulative_costs()[-1] == pytest.approx(sum(result.per_slot_costs()))

    def test_delta_bound_positive_for_paper_parameters(self):
        assert delta_optimality_gap(2500.0, 5, 4, 0.5507) > 0

    def test_rerunning_a_policy_on_the_same_trace_is_deterministic(self, integration_config):
        graph = integration_config.build_graph(seed=1)
        trace = integration_config.build_trace(graph, seed=2)
        simulator = SlottedSimulator(
            graph=graph, trace=trace, total_budget=integration_config.total_budget
        )
        first = simulator.run(make_policy("oscar", integration_config), seed=5)
        second = simulator.run(make_policy("oscar", integration_config), seed=5)
        assert first.per_slot_costs() == second.per_slot_costs()
        assert first.average_utility() == pytest.approx(second.average_utility())
