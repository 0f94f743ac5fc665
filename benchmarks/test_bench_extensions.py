"""Benchmark: the reproduction's extensions beyond the paper's figures.

* **Offline oracle vs OSCAR** — the empirical counterpart of Theorem 2: the
  oracle (which knows the whole workload) respects the budget and its
  utility upper-bounds what a budget-respecting policy can achieve, while
  OSCAR lands close behind without any future knowledge.
* **Multi-tenant QDN** — several users sharing one network, each running
  OSCAR; checks the provider-level accounting invariants at benchmark scale.
"""

from __future__ import annotations

import pytest

from repro.api.registry import default_registry
from repro.core.multiuser import MultiUserSimulator, QDNUser
from repro.core.offline import OfflineOraclePolicy
from repro.core.per_slot import PerSlotSolver
from repro.simulation.engine import SlottedSimulator
from repro.workload.requests import UniformRequestProcess


@pytest.mark.benchmark(group="extensions")
def test_offline_oracle_vs_oscar(benchmark, figure_config):
    config = figure_config
    graph = config.build_graph(seed=41)
    trace = config.build_trace(graph, seed=42)

    def run():
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
        return oracle_result, oscar_result, mf_result

    oracle_result, oscar_result, mf_result = benchmark.pedantic(run, rounds=1, iterations=1)

    # The oracle respects the budget and beats the strictly-budgeted baseline.
    assert oracle_result.total_cost <= config.total_budget + 1e-9
    assert oracle_result.average_utility() >= mf_result.average_utility() - 0.02
    # OSCAR (no future knowledge) lands within a modest gap of the oracle.
    assert oscar_result.average_utility() >= oracle_result.average_utility() - 0.25

    print()
    print(
        f"oracle utility={oracle_result.average_utility():.4f} cost={oracle_result.total_cost:.0f} | "
        f"OSCAR utility={oscar_result.average_utility():.4f} cost={oscar_result.total_cost:.0f} | "
        f"MF utility={mf_result.average_utility():.4f} cost={mf_result.total_cost:.0f}"
    )


@pytest.mark.benchmark(group="extensions")
def test_multi_tenant_sharing(benchmark, figure_config):
    config = figure_config
    graph = config.build_graph(seed=51)
    horizon = config.horizon
    per_user_budget = config.total_budget / 2

    def build_users():
        return [
            QDNUser(
                name=f"user-{index}",
                policy=default_registry.make("oscar", config, total_budget=per_user_budget),
                request_process=UniformRequestProcess(min_pairs=1, max_pairs=2),
                total_budget=per_user_budget,
            )
            for index in range(2)
        ]

    def run():
        simulator = MultiUserSimulator(
            graph=graph, users=build_users(), horizon=horizon, num_candidate_routes=3
        )
        return simulator.run(seed=52)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    # Provider accounting: per-slot totals match the per-user records and the
    # utilisation never exceeds the hardware.
    for t, record in enumerate(outcome.provider_records):
        user_cost = sum(result.records[t].cost for result in outcome.user_results.values())
        assert record.total_cost == user_cost
        assert record.qubit_utilisation <= 1.0 + 1e-9
    assert outcome.total_served_fraction() > 0.8

    utilisation = outcome.provider_average_utilisation()
    print()
    print(
        f"provider qubit utilisation={utilisation['qubits']:.2%}, "
        f"channel utilisation={utilisation['channels']:.2%}, "
        f"served fraction={outcome.total_served_fraction():.2%}"
    )
