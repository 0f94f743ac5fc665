"""End-to-end tests of the figure-reproduction modules (tiny configurations).

These tests exercise each figure's pipeline from topology generation to the
formatted table; the *qualitative* shape checks against the paper are done
at slightly larger scale in the integration tests and benchmarks.
"""

import pytest

from repro.experiments import (
    ablations,
    fig3_time_evolving,
    fig4_distribution,
    fig5_budget,
    fig6_network_size,
    fig7_control_v,
    fig8_initial_queue,
)
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig.tiny().with_overrides(horizon=6, trials=1)


@pytest.fixture(scope="module")
def fig3_result(tiny_config):
    return fig3_time_evolving.run(tiny_config, seed=5)


class TestFig3:
    def test_series_cover_all_policies_and_slots(self, fig3_result, tiny_config):
        for series_map in (
            fig3_result.running_utility,
            fig3_result.running_success_rate,
            fig3_result.cumulative_cost,
        ):
            assert set(series_map.keys()) == {"OSCAR", "MA", "MF"}
            assert all(len(series) == tiny_config.horizon for series in series_map.values())

    def test_cumulative_cost_is_monotone(self, fig3_result):
        for series in fig3_result.cumulative_cost.values():
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_success_rates_are_probabilities(self, fig3_result):
        for series in fig3_result.running_success_rate.values():
            assert all(0.0 <= value <= 1.0 for value in series)

    def test_final_values_and_tables(self, fig3_result):
        finals = fig3_result.final_values()
        assert set(finals.keys()) == {"OSCAR", "MA", "MF"}
        text = fig3_result.format_tables()
        assert "Fig. 3(a)" in text and "Fig. 3(b)" in text and "Fig. 3(c)" in text


class TestFig4:
    def test_histogram_structure(self, tiny_config, fig3_result):
        result = fig4_distribution.run(
            tiny_config, bins=5, record=fig3_result.record
        )
        assert len(result.bin_edges) == 6
        for fractions in result.histograms.values():
            assert len(fractions) == 5
            assert sum(fractions) == pytest.approx(1.0)
        assert set(result.fairness.keys()) == {"OSCAR", "MA", "MF"}
        assert "Fig. 4" in result.format_tables()
        assert result.record is fig3_result.record


class TestFig5:
    def test_budget_sweep(self, tiny_config):
        budgets = [150.0, 300.0]
        result = fig5_budget.run(tiny_config, budgets=budgets, trials=1, seed=2)
        assert result.budgets == budgets
        for series in result.success_rate.values():
            assert len(series) == 2
        assert len(result.oscar_advantage("MF")) == 2
        assert "Fig. 5(a)" in result.format_tables()

    def test_default_sweep_scales_with_config(self, tiny_config):
        budgets = fig5_budget.sweep_budgets_for(tiny_config)
        assert min(budgets) < tiny_config.total_budget < max(budgets) + 1e-9


class TestFig6:
    def test_size_sweep(self, tiny_config):
        result = fig6_network_size.run(tiny_config, sizes=(6, 8), trials=1, seed=3)
        assert result.sizes == [6, 8]
        for series in result.success_rate.values():
            assert len(series) == 2
        assert "Fig. 6(a)" in result.format_tables()

    def test_default_sizes_scale_with_config(self, tiny_config):
        sizes = fig6_network_size.sweep_sizes_for(tiny_config)
        assert all(size >= 6 for size in sizes)
        assert len(sizes) >= 2


class TestFig7:
    def test_v_sweep(self, tiny_config):
        result = fig7_control_v.run(tiny_config, v_values=(100.0, 5000.0), trials=1, seed=4)
        assert result.v_values == [100.0, 5000.0]
        assert len(result.average_utility) == 2
        assert len(result.budget_violation) == 2
        assert len(result.theorem1_bounds) == 2
        assert "Fig. 7" in result.format_tables()

    def test_larger_v_never_spends_less(self, tiny_config):
        result = fig7_control_v.run(tiny_config, v_values=(50.0, 10000.0), trials=1, seed=4)
        assert result.total_cost[1] >= result.total_cost[0] - 1e-9


class TestFig8:
    def test_q0_sweep(self, tiny_config):
        result = fig8_initial_queue.run(tiny_config, q0_values=(0.0, 100.0), trials=1, seed=5)
        assert result.q0_values == [0.0, 100.0]
        assert len(result.total_cost) == 2
        assert len(result.early_cost) == 2
        assert "Fig. 8" in result.format_tables()

    def test_larger_q0_spends_less_early(self, tiny_config):
        result = fig8_initial_queue.run(tiny_config, q0_values=(0.0, 500.0), trials=1, seed=6)
        assert result.early_cost[1] <= result.early_cost[0] + 1e-9


class TestAblations:
    def test_link_model_ablation_validates_equation_one(self):
        result = ablations.run_link_model_ablation(
            attempt_success=2e-3, attempts_per_slot=200, channel_counts=(1, 2), trials=5000
        )
        assert result.max_absolute_error() < 0.03
        assert "Monte-Carlo" in result.format_table()

    def test_solver_ablation(self, tiny_config):
        result = ablations.run_solver_ablation(tiny_config, num_slots=3, seed=1)
        assert result.instances > 0
        assert result.mean_relative_gap < 0.05
        assert 0.0 <= result.exact_fraction <= 1.0
        assert "exact oracle" in result.format_table()

    def test_route_selection_ablation(self, tiny_config):
        result = ablations.run_route_selection_ablation(tiny_config, num_slots=3, seed=2)
        assert result.slots_compared > 0
        # Exhaustive is exact, so the gap is non-negative and small.
        assert result.mean_objective_gap >= -1e-6
        assert "Gibbs" in result.format_table()
