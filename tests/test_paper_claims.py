"""The paper's evaluation claims (Sec. V, Figs. 3-8), its extensions and ablations.

Each test regenerates one figure, extension or ablation at a reduced scale
(a 9-10 node network, a 12-20 slot horizon, one trial, three sweep points)
and asserts the *shape* the paper reports: which policy wins, how a curve
moves with the swept parameter, that OSCAR spends close to its budget
without going over.  The tolerances absorb the noise of the reduced scale;
a failure is a finding, not a bound to loosen.  Reproducing the
paper-scale numbers is a matter of running the same figure on
``ExperimentConfig.paper()``.
"""

from __future__ import annotations

import pytest

from repro.api.registry import default_registry
from repro.core.multiuser import MultiUserSimulator, QDNUser
from repro.core.offline import OfflineOraclePolicy
from repro.core.per_slot import PerSlotSolver
from repro.experiments import ablations, figures
from repro.experiments.config import ExperimentConfig
from repro.simulation.engine import SlottedSimulator
from repro.workload.requests import UniformRequestProcess


def figure_config() -> ExperimentConfig:
    """The reduced scale of Figs. 3 and 4 and of the extensions."""
    return ExperimentConfig(
        num_nodes=10,
        horizon=20,
        total_budget=500.0,      # keeps C/T = 25, the paper's per-slot share
        trials=1,
        max_pairs=4,
        gibbs_iterations=20,
        num_candidate_routes=3,
        trade_off_v=2500.0,
        initial_queue=10.0,
        gamma=500.0,
        base_seed=2024,
    )


def sweep_config() -> ExperimentConfig:
    """The smaller scale of the parameter sweeps (Figs. 5-8) and ablations."""
    return figure_config().with_overrides(horizon=12, num_nodes=9)


# --------------------------------------------------------------------- #
# Figures 3-8
# --------------------------------------------------------------------- #
def test_fig3_oscar_leads_and_respects_the_budget():
    config = figure_config()
    finals = figures.final_values(figures.run("fig3", config, seed=7))

    assert finals["OSCAR"]["final_cost"] <= config.total_budget * 1.1
    # Headline ordering: OSCAR at least matches MF in success rate and utility.
    assert finals["OSCAR"]["final_success_rate"] >= finals["MF"]["final_success_rate"] - 0.01
    assert finals["OSCAR"]["final_utility"] >= finals["MF"]["final_utility"] - 0.02
    # MF's fixed per-slot share under-uses the budget relative to OSCAR.
    assert finals["MF"]["final_cost"] <= finals["OSCAR"]["final_cost"] + 1e-9


def test_fig4_oscar_success_rates_are_high_and_fair():
    result = figures.run("fig4", figure_config(), bins=10, seed=7).data
    histograms, fairness = result["histograms"], result["fairness"]

    for fractions in histograms.values():
        assert sum(fractions) == pytest.approx(1.0, abs=1e-9)
    # OSCAR places at least as much mass in the top bins as MF ...
    oscar_top = sum(histograms["OSCAR"][-3:])
    mf_top = sum(histograms["MF"][-3:])
    assert oscar_top >= mf_top - 0.05
    # ... and its Jain index is not worse than MF's.
    assert fairness["OSCAR"] >= fairness["MF"] - 0.02


def test_fig5_budget_sweep():
    config = sweep_config()
    budgets = [factor * config.total_budget for factor in (0.6, 1.0, 1.6)]
    result = figures.run("fig5", config, values=budgets, seed=7)
    success_rate, total_cost = result.data["success_rate"], result.data["total_cost"]

    # OSCAR is at least as good as MF at every budget level.
    for oscar, mf in zip(success_rate["OSCAR"], success_rate["MF"]):
        assert oscar >= mf - 0.02
    # OSCAR's success rate improves (weakly) with more budget.
    oscar_rates = success_rate["OSCAR"]
    assert oscar_rates[-1] >= oscar_rates[0] - 0.02
    # The advantage over MF shrinks (weakly) as resources stop being scarce.
    advantage = figures.oscar_advantage(result, "MF")
    assert advantage[-1] <= advantage[0] + 0.05
    # OSCAR's total spending grows with the available budget.
    assert total_cost["OSCAR"][-1] >= total_cost["OSCAR"][0] - 1e-9


def test_fig6_network_size_sweep():
    success_rate = figures.run("fig6", sweep_config(), values=(8, 12, 16), seed=7).data[
        "success_rate"
    ]

    # OSCAR dominates MF at every network size.
    for oscar, mf in zip(success_rate["OSCAR"], success_rate["MF"]):
        assert oscar >= mf - 0.02
    # Larger networks do not get easier (longer routes under the same budget).
    oscar_rates = success_rate["OSCAR"]
    assert oscar_rates[-1] <= oscar_rates[0] + 0.03


def test_fig7_control_parameter_v():
    config = sweep_config()
    result = figures.run("fig7", config, values=(250.0, 2500.0, 25000.0), seed=7).data
    violations = result["budget_violation"]

    # Spending, and with it the violation, is non-decreasing in V.
    assert result["total_cost"][-1] >= result["total_cost"][0] - 1e-9
    assert violations[-1] >= violations[0] - 1e-9
    # Utility is non-decreasing in V.
    assert result["average_utility"][-1] >= result["average_utility"][0] - 0.05
    # The measured per-slot violation respects the Theorem-1 bound.
    for violation, bound in zip(violations, result["theorem1_bounds"]):
        if bound == bound:  # not NaN
            assert violation / config.horizon <= bound + 1e-6


def test_fig8_initial_queue():
    result = figures.run("fig8", sweep_config(), values=(0.0, 25.0, 250.0), seed=7).data

    # A larger q0 spends less early on and (weakly) less in total ...
    assert result["early_cost"][-1] <= result["early_cost"][0] + 1e-9
    assert result["total_cost"][-1] <= result["total_cost"][0] + 1e-9
    # ... and a huge q0 cannot improve utility.
    assert result["average_utility"][-1] <= result["average_utility"][0] + 0.05


# --------------------------------------------------------------------- #
# Extensions beyond the paper's figures
# --------------------------------------------------------------------- #
def test_offline_oracle_bounds_oscar():
    """The empirical side of Theorem 2: OSCAR lands close behind the oracle."""
    config = figure_config()
    graph = config.build_graph(seed=41)
    trace = config.build_trace(graph, seed=42)
    oracle = OfflineOraclePolicy.for_trace(
        graph,
        trace,
        total_budget=config.total_budget,
        solver=PerSlotSolver(gibbs_iterations=15),
        seed=43,
    )
    simulator = SlottedSimulator(
        graph=graph, trace=trace, total_budget=config.total_budget, realize=False
    )
    oracle_result = simulator.run(oracle, seed=44)
    oscar_result = simulator.run(default_registry.make("oscar", config), seed=44)
    mf_result = simulator.run(default_registry.make("myopic-fixed", config), seed=44)

    # The oracle respects the budget and beats the strictly budgeted baseline.
    assert oracle_result.total_cost <= config.total_budget + 1e-9
    assert oracle_result.average_utility() >= mf_result.average_utility() - 0.02
    # OSCAR, without future knowledge, lands within a modest gap of the oracle.
    assert oscar_result.average_utility() >= oracle_result.average_utility() - 0.25


def test_multi_tenant_provider_accounting():
    config = figure_config()
    graph = config.build_graph(seed=51)
    per_user_budget = config.total_budget / 2
    users = [
        QDNUser(
            name=f"user-{index}",
            policy=default_registry.make("oscar", config, total_budget=per_user_budget),
            request_process=UniformRequestProcess(min_pairs=1, max_pairs=2),
            total_budget=per_user_budget,
        )
        for index in range(2)
    ]
    simulator = MultiUserSimulator(
        graph=graph,
        users=users,
        horizon=config.horizon,
        num_candidate_routes=3,
    )
    outcome = simulator.run(seed=52)

    # Per-slot provider totals match the per-user records, and utilisation
    # never exceeds the hardware.
    for t, record in enumerate(outcome.provider_records):
        user_cost = sum(result.records[t].cost for result in outcome.user_results.values())
        assert record.total_cost == user_cost
        assert record.qubit_utilisation <= 1.0 + 1e-9
    assert outcome.total_served_fraction() > 0.8


# --------------------------------------------------------------------- #
# Ablations of the reproduction's design choices
# --------------------------------------------------------------------- #
def test_gibbs_route_selection_close_to_exhaustive():
    config = sweep_config()
    result = ablations.run_route_selection_ablation(config=config, num_slots=6, seed=7)
    # Exhaustive search is exact, so Gibbs is never better; its gap stays
    # small relative to the objective scale (V = 2500).
    assert result.mean_objective_gap >= -1e-6
    assert result.mean_objective_gap <= 0.05 * config.trade_off_v


def test_slot_solver_close_to_the_exact_oracle():
    result = ablations.run_solver_ablation(config=sweep_config(), num_slots=6, seed=11)
    assert result.instances > 0
    assert result.mean_relative_gap < 0.02
    assert result.max_relative_gap < 0.10


def test_analytic_link_model_matches_monte_carlo():
    result = ablations.run_link_model_ablation(trials=20000)
    assert result.max_absolute_error() < 0.02
