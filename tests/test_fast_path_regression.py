"""Regression: the kernel's adaptive mode leaves every summary number unchanged.

Runs reduced-scale versions of the paper figures in the default adaptive
mode (warm starts, early stops, KKT shortcuts, pruned enumeration) and in
replay mode (``dual_tolerance=0``, the fixed schedule) and asserts the
formatted summary tables are byte-identical; also covers the solver-field
threading through the config, the fluent scenario API, the study axis
groups and the CLI, plus the route-fidelity memoisation.
"""

from __future__ import annotations

import pytest

import repro.core.fidelity as fidelity_module
from repro import api
from repro.cli import build_parser
from repro.core.fidelity import RouteFidelityModel
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.network.routes import Route


def regression_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=8, horizon=8, total_budget=250.0, trials=1, max_pairs=3,
        gibbs_iterations=12, num_candidate_routes=3, base_seed=2024,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFigureTablesUnchanged:
    def test_fig5_budget_tables_identical(self):
        budgets = (200.0, 300.0)
        fast = figures.run("fig5", regression_config(), values=budgets, seed=5)
        slow = figures.run(
            "fig5", regression_config(dual_tolerance=0.0), values=budgets, seed=5
        )
        assert fast.format_tables() == slow.format_tables()

    def test_fig6_network_size_tables_identical(self):
        sizes = (12,)
        fast = figures.run("fig6", regression_config(), values=sizes, seed=5)
        slow = figures.run(
            "fig6", regression_config(dual_tolerance=0.0), values=sizes, seed=5
        )
        assert fast.format_tables() == slow.format_tables()

    def test_warm_start_early_stop_matches_replay(self):
        # dual_tolerance=0 runs the fixed iteration schedule on the kernel;
        # the default adaptive mode must not change the tables.
        sizes = (8, 10)
        adaptive = figures.run("fig6", regression_config(), values=sizes, seed=5)
        replay = figures.run(
            "fig6", regression_config(dual_tolerance=0.0), values=sizes, seed=5
        )
        assert adaptive.format_tables() == replay.format_tables()


class TestSolverThreading:
    def test_config_defaults(self):
        config = ExperimentConfig.paper()
        assert config.dual_tolerance == pytest.approx(1e-4)
        assert config.solve_deadline == 0

    def test_config_factories_thread_the_toggle(self):
        config = regression_config(dual_tolerance=1e-6, solve_deadline=9)
        for name in ("oscar", "myopic-adaptive", "myopic-fixed", "unconstrained"):
            policy = api.default_registry.make(name, config)
            assert policy.dual_tolerance == pytest.approx(1e-6)
            assert policy.solve_deadline == 9

    def test_registry_injects_solver_fields(self):
        config = regression_config(dual_tolerance=0.0)
        policy = api.make_policy("oscar", config)
        assert policy.dual_tolerance == 0.0

    def test_scenario_with_solver(self):
        scenario = api.Scenario.tiny().with_solver(dual_tolerance=0.0, solve_deadline=5)
        assert scenario.config.dual_tolerance == 0.0
        assert scenario.config.solve_deadline == 5

    def test_scenario_with_solver_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            api.Scenario.tiny().with_solver(total_budget=100.0)
        with pytest.raises(TypeError):
            api.Scenario.tiny().with_solver(fast=False)

    def test_study_solver_axis(self):
        from repro.experiments.config import resolve_path

        assert resolve_path("solver.dual_tolerance") == "dual_tolerance"
        with pytest.raises(ValueError):
            resolve_path("solver.total_budget")
        with pytest.raises(ValueError):
            resolve_path("solver.use_kernel")

    def test_cli_flags(self):
        parser = build_parser()
        arguments = parser.parse_args(["compare", "--scale", "tiny", "--dual-tolerance", "0"])
        assert getattr(arguments, "solver.dual_tolerance") == 0.0
        from repro.cli import _config_from_args

        config = _config_from_args(arguments)
        assert config.dual_tolerance == 0.0
        for removed in ("--legacy-solver", "--no-kernel-cache"):
            with pytest.raises(SystemExit):
                parser.parse_args(["compare", "--scale", "tiny", removed])


class TestRouteFidelityMemoisation:
    def test_chain_computed_once_per_route(self, monkeypatch):
        calls = []
        real = fidelity_module.fidelity_of_chain

        def counting(chain):
            calls.append(1)
            return real(chain)

        monkeypatch.setattr(fidelity_module, "fidelity_of_chain", counting)
        model = RouteFidelityModel(link_fidelity=0.96)
        route = Route.from_nodes([0, 1, 2, 3])
        first = model.route_fidelity(route)
        second = model.route_fidelity(route)
        assert first == second
        assert len(calls) == 1
        # A distinct route misses the cache.
        model.route_fidelity(Route.from_nodes([0, 1, 2]))
        assert len(calls) == 2

    def test_cache_does_not_leak_between_models(self):
        route = Route.from_nodes([0, 1, 2])
        low = RouteFidelityModel(link_fidelity=0.9)
        high = RouteFidelityModel(link_fidelity=0.99)
        assert low.route_fidelity(route) < high.route_fidelity(route)
