"""Budget shifting under a diurnal DQC workload.

The core argument for user-centric (long-horizon) entanglement routing is
that real DQC demand is not flat: there are busy and quiet phases, and a
budget spent uniformly (the Myopic-Fixed baseline) is wasted in the quiet
phases and insufficient in the busy ones.  This example drives OSCAR, the
myopic baselines and the offline Lagrangian oracle with a periodic
("diurnal") request process and shows how much of its budget each policy
spends during the busy half of the cycle.

Run it with::

    python examples/diurnal_budget_shifting.py
"""

from __future__ import annotations

from repro import api
from repro.analysis.stats import downsample
from repro.core.offline import OfflineOraclePolicy
from repro.core.per_slot import PerSlotSolver
from repro.experiments.reporting import format_series_table, format_table
from repro.network.topology import waxman_topology_with_degree
from repro.simulation.engine import simulate_policies
from repro.workload.requests import DiurnalRequestProcess
from repro.workload.traces import generate_trace


def main() -> None:
    horizon = 40
    period = 20
    total_budget = 1000.0

    graph = waxman_topology_with_degree(num_nodes=12, target_degree=4.0, seed=21)
    workload = DiurnalRequestProcess(period=period, min_rate=0.5, max_rate=4.5, max_pairs=6)
    trace = generate_trace(
        graph, horizon=horizon, request_process=workload, num_candidate_routes=3, seed=22
    )
    print(f"Network: {graph.describe()}")
    print(f"Workload: diurnal, period {period} slots, "
          f"{trace.total_requests()} EC requests over {horizon} slots")

    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig.small().with_overrides(horizon=horizon, total_budget=total_budget)
    policies = [
        *(api.default_registry.make(name, config) for name in ("oscar", "ma", "mf")),
        OfflineOraclePolicy.for_trace(
            graph, trace, total_budget=total_budget,
            solver=PerSlotSolver(gibbs_iterations=20), seed=23,
        ),
    ]
    results = simulate_policies(graph, trace, policies, total_budget=total_budget, seed=24)

    # Which slots are "busy"?  Those whose expected rate is above the midpoint.
    midpoint = 0.5 * (workload.min_rate + workload.max_rate)
    busy_slots = [t for t in range(horizon) if workload.expected_rate(t) >= midpoint]

    rows = []
    for name, result in results.items():
        costs = result.per_slot_costs()
        busy_spend = sum(costs[t] for t in busy_slots)
        rows.append([
            name,
            round(result.average_success_rate(), 4),
            round(result.average_utility(), 4),
            round(result.total_cost, 1),
            round(busy_spend / result.total_cost, 3) if result.total_cost else 0.0,
            round(result.budget_violation, 1),
        ])
    print()
    print(format_table(
        ["policy", "avg EC success", "avg utility", "qubits spent",
         "fraction spent in busy phase", "budget violation"],
        rows,
        title=f"Diurnal workload, budget C={total_budget:g} over {horizon} slots",
    ))

    print()
    points = 11
    print(format_series_table(
        "slot",
        [int(slot) for slot in downsample(range(horizon), points)],
        {name: downsample(result.cumulative_costs(), points) for name, result in results.items()},
        title="Cumulative qubit spending over time (note the flat quiet phases for OSCAR/Oracle)",
        precision=1,
    ))
    print()
    print("OSCAR and the oracle concentrate their spending in the busy phase of the")
    print("cycle (higher 'fraction spent in busy phase') which is where the extra")
    print("qubits actually convert into higher EC success rates; Myopic-Fixed burns")
    print("the same share every slot regardless of demand.")


if __name__ == "__main__":
    main()
