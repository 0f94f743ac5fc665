"""End-to-end tests of the figure runner (tiny configurations).

These tests exercise each figure's pipeline from topology generation to the
formatted table; the *qualitative* shape checks against the paper are done
at slightly larger scale in the integration tests and benchmarks.
"""

import pytest

from repro.experiments import ablations, figures
from repro.experiments.config import ExperimentConfig, resolve_path


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig.tiny().with_overrides(horizon=6, trials=1)


@pytest.fixture(scope="module")
def fig3_result(tiny_config):
    return figures.run("fig3", tiny_config, seed=5)


class TestFig3:
    def test_series_cover_all_policies_and_slots(self, fig3_result, tiny_config):
        for key in ("running_utility", "running_success_rate", "cumulative_cost"):
            series_map = fig3_result.data[key]
            assert set(series_map.keys()) == {"OSCAR", "MA", "MF"}
            assert all(len(series) == tiny_config.horizon for series in series_map.values())

    def test_cumulative_cost_is_monotone(self, fig3_result):
        for series in fig3_result.data["cumulative_cost"].values():
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_success_rates_are_probabilities(self, fig3_result):
        for series in fig3_result.data["running_success_rate"].values():
            assert all(0.0 <= value <= 1.0 for value in series)

    def test_final_values_and_tables(self, fig3_result):
        finals = figures.final_values(fig3_result)
        assert set(finals.keys()) == {"OSCAR", "MA", "MF"}
        text = fig3_result.format_tables()
        assert "Fig. 3(a)" in text and "Fig. 3(b)" in text and "Fig. 3(c)" in text


class TestFig4:
    def test_histogram_structure(self, tiny_config, fig3_result):
        result = figures.run("fig4", tiny_config, bins=5, record=fig3_result.record)
        assert len(result.data["bin_edges"]) == 6
        for fractions in result.data["histograms"].values():
            assert len(fractions) == 5
            assert sum(fractions) == pytest.approx(1.0)
        assert set(result.data["fairness"].keys()) == {"OSCAR", "MA", "MF"}
        assert "Fig. 4" in result.format_tables()
        assert result.record is fig3_result.record
        # The payload names the config the reused run ran, not the argument's.
        assert result.config == fig3_result.config

    def test_reused_record_sets_the_slots(self, tiny_config, fig3_result):
        result = figures.run("fig3", tiny_config.with_overrides(horizon=3), record=fig3_result.record)
        assert result.data["slots"] == list(range(tiny_config.horizon))


class TestFig5:
    def test_budget_sweep(self, tiny_config):
        budgets = [150.0, 300.0]
        result = figures.run("fig5", tiny_config, values=budgets, trials=1, seed=2)
        assert result.data["budgets"] == budgets
        for series in result.data["success_rate"].values():
            assert len(series) == 2
        assert len(figures.oscar_advantage(result, "MF")) == 2
        assert "Fig. 5(a)" in result.format_tables()

    def test_default_sweep_scales_with_config(self, tiny_config):
        budgets = figures.FIGURES["fig5"].values(tiny_config)
        assert min(budgets) < tiny_config.total_budget < max(budgets) + 1e-9


class TestFig6:
    def test_size_sweep(self, tiny_config):
        result = figures.run("fig6", tiny_config, values=(6, 8), trials=1, seed=3)
        assert result.data["sizes"] == [6, 8]
        for series in result.data["success_rate"].values():
            assert len(series) == 2
        assert "Fig. 6(a)" in result.format_tables()

    def test_default_sizes_scale_with_config(self, tiny_config):
        sizes = figures.FIGURES["fig6"].values(tiny_config)
        assert all(size >= 6 for size in sizes)
        assert len(sizes) >= 2


class TestFig7:
    def test_v_sweep(self, tiny_config):
        result = figures.run("fig7", tiny_config, values=(100.0, 5000.0), trials=1, seed=4)
        assert result.data["v_values"] == [100.0, 5000.0]
        assert len(result.data["average_utility"]) == 2
        assert len(result.data["budget_violation"]) == 2
        assert len(result.data["theorem1_bounds"]) == 2
        assert "Fig. 7" in result.format_tables()

    def test_theorem1_bound_reads_each_points_v(self, tiny_config):
        # The bound's V term grows with V, so it differs only if each point's
        # own V reaches the reducer.
        result = figures.run("fig7", tiny_config, values=(100.0, 5000.0), trials=1, seed=4)
        low, high = result.data["theorem1_bounds"]
        assert 0.0 < low < high

    def test_larger_v_never_spends_less(self, tiny_config):
        result = figures.run("fig7", tiny_config, values=(50.0, 10000.0), trials=1, seed=4)
        total_cost = result.data["total_cost"]
        assert total_cost[1] >= total_cost[0] - 1e-9


class TestFig8:
    def test_q0_sweep(self, tiny_config):
        result = figures.run("fig8", tiny_config, values=(0.0, 100.0), trials=1, seed=5)
        assert result.data["q0_values"] == [0.0, 100.0]
        assert len(result.data["total_cost"]) == 2
        assert len(result.data["early_cost"]) == 2
        assert "Fig. 8" in result.format_tables()

    def test_larger_q0_spends_less_early(self, tiny_config):
        result = figures.run("fig8", tiny_config, values=(0.0, 500.0), trials=1, seed=6)
        early_cost = result.data["early_cost"]
        assert early_cost[1] <= early_cost[0] + 1e-9


class TestFigureSpecs:
    def test_swept_paths_are_the_study_axes(self, tiny_config):
        # The CLI refuses a flag for a swept path, so swept must name every
        # axis the figure's study sets.
        for name, spec in figures.FIGURES.items():
            if spec.path is None:
                assert spec.swept == (), name
                continue
            study = figures.build_study(name, tiny_config, spec.values(tiny_config))
            assert tuple(axis.path for axis in study.axes) == tuple(
                resolve_path(path) for path in spec.swept
            ), name

    def test_fig11_axis_sets_the_mtbf_of_each_rate(self, tiny_config):
        # fig11 sweeps outage rates but sets each as an MTBF on the config.
        study = figures.build_study("fig11", tiny_config, [0.0, 0.02])
        assert study.axes[-1].values == (0.0, 50.0)
        assert study.axes[0].values == (True, False)

    def test_paper_scale_sweeps_the_papers_values(self):
        # Sec. V-A: C in 3000..8000, 10..30 nodes, V in 500..10000, q0 in 0..200.
        config = ExperimentConfig.paper()
        names = ("fig5", "fig6", "fig7", "fig8")
        values = {name: figures.FIGURES[name].values(config) for name in names}
        assert values == {
            "fig5": [3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0],
            "fig6": [10, 15, 20, 25, 30],
            "fig7": [500.0, 1000.0, 2500.0, 5000.0, 10000.0],
            "fig8": [0.0, 10.0, 50.0, 100.0, 200.0],
        }

    def test_payload_keeps_the_spec_order(self, tiny_config, fig3_result):
        # figure --json is dumped without sort_keys, so the order is the output's.
        view = figures.run("fig4", tiny_config, record=fig3_result.record)
        assert list(view.to_dict()) == [
            "figure", "config", "bin_edges", "histograms", "fairness", "record",
        ]
        sweep = figures.run("fig9", tiny_config, values=(200.0,), trials=1)
        assert list(sweep.to_dict()) == [
            "figure", "config", "budgets", "delivered_fidelity", "fidelity_throughput",
            "delivered_rate", "physical_stats", "study",
        ]


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
