"""Micro-benchmarks of the reproduction's performance-critical components.

These do not correspond to a paper figure; they track the cost of the two
inner loops that dominate the runtime of every experiment — one slot-kernel
solve of a route combination (Algorithm 2) and one full per-slot P2 solve —
so that performance regressions are caught before they make the figure
benchmarks unusable.
"""

from __future__ import annotations

import pytest

from repro.core.per_slot import PerSlotSolver
from repro.core.problem import SlotContext
from repro.network.routes import build_candidate_routes
from repro.network.topology import waxman_topology
from repro.solvers.kernel import KernelCache
from repro.workload.requests import SDPair


def _slot_context(seed: int = 3):
    graph = waxman_topology(num_nodes=12, seed=seed)
    requests = [
        SDPair(source=graph.nodes[0], destination=graph.nodes[-1], request_id=0),
        SDPair(source=graph.nodes[1], destination=graph.nodes[-2], request_id=1),
        SDPair(source=graph.nodes[2], destination=graph.nodes[-3], request_id=2),
    ]
    candidates = build_candidate_routes(graph, [r.endpoints for r in requests], num_routes=3)
    return SlotContext(
        t=0,
        graph=graph,
        snapshot=graph.full_snapshot(),
        requests=tuple(requests),
        candidate_routes={r: tuple(candidates[r.endpoints]) for r in requests},
    )


@pytest.mark.benchmark(group="components")
def test_bench_kernel_solve(benchmark):
    context = _slot_context()
    requests = list(context.servable_requests())
    candidates = [list(context.routes_for(r)) for r in requests]
    assignment = tuple(0 for _ in requests)

    def solve():
        # A fresh cache: compile, bind and solve one combination cold.
        kernel = KernelCache().bind(
            context, requests, candidates, utility_weight=2500.0, cost_weight=12.0
        )
        return kernel.outcome_for(assignment)

    outcome = benchmark(solve)
    assert outcome.feasible


@pytest.mark.benchmark(group="components")
def test_bench_per_slot_solve(benchmark):
    context = _slot_context()
    solver = PerSlotSolver(gibbs_iterations=20)
    solution = benchmark.pedantic(
        solver.solve,
        kwargs={"context": context, "utility_weight": 2500.0, "cost_weight": 10.0, "seed": 1},
        rounds=3,
        iterations=1,
    )
    assert solution.decision.num_served >= 1
