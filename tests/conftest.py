"""Shared fixtures for the test suite.

The fixtures build small, fully deterministic networks and workloads so that
tests run fast and failures are reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import SlotContext
from repro.network.graph import QDNGraph, QuantumEdge, QuantumNode
from repro.network.routes import Route, build_candidate_routes
from repro.network.topology import CapacityRanges, waxman_topology
from repro.solvers.kernel import DEFAULT_DUAL_TOLERANCE, KernelCache
from repro.workload.requests import SDPair


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def _bundle_dir_in_tmp(tmp_path, monkeypatch):
    """Keep repro bundles out of the working tree.

    Tests that exercise failure paths (or the whole suite under
    ``REPRO_GUARD=strict``) dump repro bundles on any exception inside
    ``execute_trial``; redirecting the bundle directory into the per-test
    tmp dir keeps the checkout clean.  Tests asserting on bundle contents
    read the same variable, so they keep working.
    """
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "repro-bundles"))


def make_line_graph(
    num_nodes: int = 4,
    qubits: int = 12,
    channels: int = 6,
    attempt_success: float = 2.0e-4,
    attempts_per_slot: int = 4000,
) -> QDNGraph:
    """A line network 0 - 1 - 2 - … with uniform capacities."""
    graph = QDNGraph(attempts_per_slot=attempts_per_slot)
    for index in range(num_nodes):
        graph.add_node(QuantumNode(name=index, qubit_capacity=qubits, position=(float(index), 0.0)))
    for index in range(num_nodes - 1):
        graph.add_edge(
            QuantumEdge(
                u=index,
                v=index + 1,
                channel_capacity=channels,
                length=10.0,
                attempt_success=attempt_success,
            )
        )
    return graph


def make_diamond_graph(qubits: int = 10, channels: int = 5) -> QDNGraph:
    """A diamond: 0-1-3 and 0-2-3 plus the chord 1-2 (two disjoint routes 0→3)."""
    graph = QDNGraph(attempts_per_slot=4000)
    for index in range(4):
        graph.add_node(QuantumNode(name=index, qubit_capacity=qubits, position=(float(index), float(index % 2))))
    for u, v in [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]:
        graph.add_edge(
            QuantumEdge(u=u, v=v, channel_capacity=channels, length=10.0, attempt_success=2.0e-4)
        )
    return graph


@pytest.fixture
def line_graph() -> QDNGraph:
    """A 4-node line network."""
    return make_line_graph()


@pytest.fixture
def diamond_graph() -> QDNGraph:
    """A 4-node diamond network with two disjoint routes between 0 and 3."""
    return make_diamond_graph()


@pytest.fixture
def small_waxman() -> QDNGraph:
    """A small random (but seeded) Waxman network."""
    return waxman_topology(
        num_nodes=10,
        alpha=0.5,
        beta=0.6,
        capacities=CapacityRanges(qubit_min=10, qubit_max=14, channel_min=5, channel_max=7),
        seed=7,
    )


def make_context(
    graph: QDNGraph,
    pairs,
    num_routes: int = 3,
    t: int = 0,
) -> SlotContext:
    """Build a slot context for the given endpoint pairs with full availability."""
    requests = [
        SDPair(source=source, destination=destination, request_id=index)
        for index, (source, destination) in enumerate(pairs)
    ]
    candidates = build_candidate_routes(
        graph, [request.endpoints for request in requests], num_routes=num_routes
    )
    return SlotContext(
        t=t,
        graph=graph,
        snapshot=graph.full_snapshot(),
        requests=tuple(requests),
        candidate_routes={
            request: tuple(candidates[request.endpoints]) for request in requests
        },
    )


@pytest.fixture
def diamond_context(diamond_graph) -> SlotContext:
    """A one-request context on the diamond graph (0 → 3)."""
    return make_context(diamond_graph, [(0, 3)])


@pytest.fixture
def line_context(line_graph) -> SlotContext:
    """A one-request context on the line graph (0 → 3)."""
    return make_context(line_graph, [(0, 3)])


def bind_kernel(
    context: SlotContext,
    utility_weight: float = 1.0,
    cost_weight: float = 0.0,
    budget_cap=None,
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE,
    requests=None,
):
    """A slot kernel bound on a fresh cache over ``requests`` (default: servable)."""
    requests = list(context.servable_requests() if requests is None else requests)
    return KernelCache().bind(
        context,
        requests,
        [list(context.routes_for(r)) for r in requests],
        utility_weight=utility_weight,
        cost_weight=cost_weight,
        budget_cap=budget_cap,
        dual_tolerance=dual_tolerance,
    )


def allocate(
    context: SlotContext,
    selection,
    utility_weight: float = 1.0,
    cost_weight: float = 0.0,
    budget_cap=None,
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE,
):
    """Algorithm 2 for a fixed route selection, on a freshly bound kernel."""
    requests = list(selection)
    kernel = KernelCache().bind(
        context,
        requests,
        [[selection[r]] for r in requests],
        utility_weight=utility_weight,
        cost_weight=cost_weight,
        budget_cap=budget_cap,
        dual_tolerance=dual_tolerance,
    )
    return kernel.outcome_for(tuple(0 for _ in requests))


def star_context(successes, capacity: int, spare: int = 1000) -> SlotContext:
    """One-hop requests ``0 → i`` whose variables share only the hub's qubits.

    Edge ``(0, i)`` has single-channel slot success ``successes[i - 1]``
    (one attempt per slot); every other node and edge has ``spare``
    capacity, so the hub's ``capacity`` is the one binding constraint.
    """
    graph = QDNGraph(attempts_per_slot=1)
    graph.add_node(QuantumNode(name=0, qubit_capacity=int(capacity)))
    for leaf, success in enumerate(successes, start=1):
        graph.add_node(QuantumNode(name=leaf, qubit_capacity=spare))
        graph.add_edge(
            QuantumEdge(u=0, v=leaf, channel_capacity=spare, attempt_success=float(success))
        )
    requests = tuple(
        SDPair(source=0, destination=leaf) for leaf in range(1, len(successes) + 1)
    )
    return SlotContext(
        t=0,
        graph=graph,
        snapshot=graph.full_snapshot(),
        requests=requests,
        candidate_routes={
            request: (Route.from_nodes((0, request.destination)),) for request in requests
        },
    )
