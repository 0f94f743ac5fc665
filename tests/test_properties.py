"""Cross-cutting property-based tests.

These hypothesis tests exercise invariants that span several layers of the
library — the kind of properties that individual unit tests (which pin
specific inputs) cannot cover exhaustively:

* the allocation pipeline (relax → round) always returns feasible integer
  allocations whose objective dominates the minimum allocation;
* the per-slot objective is consistent between the solver layer and the
  decision layer for arbitrary allocations;
* the virtual queue plus budget tracker never disagree about spending;
* Werner fidelity algebra and the channel formulas compose consistently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import SlotContext, SlotDecision
from repro.core.virtual_queue import VirtualQueue
from repro.network.channels import multi_channel_success, per_slot_success
from repro.network.graph import QDNGraph, QuantumEdge, QuantumNode, edge_key
from repro.network.routes import Route
from repro.physics.fidelity import fidelity_after_swap, fidelity_of_chain
from repro.workload.budget import BudgetTracker
from repro.workload.requests import SDPair

from conftest import allocate, bind_kernel, star_context


def build_chain_graph(num_nodes: int, qubits: int, channels: int, attempt_success: float) -> QDNGraph:
    graph = QDNGraph(attempts_per_slot=2000)
    for index in range(num_nodes):
        graph.add_node(QuantumNode(name=index, qubit_capacity=qubits))
    for index in range(num_nodes - 1):
        graph.add_edge(
            QuantumEdge(
                u=index, v=index + 1, channel_capacity=channels,
                attempt_success=attempt_success,
            )
        )
    return graph


class TestAllocationPipelineProperties:
    @given(
        num_nodes=st.integers(3, 5),
        qubits=st.integers(4, 12),
        channels=st.integers(2, 6),
        attempt_success=st.floats(1e-4, 2e-3),
        cost_weight=st.floats(0.0, 5.0),
        utility_weight=st.floats(1.0, 3000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_end_to_end_allocation_is_feasible_and_beats_minimum(
        self, num_nodes, qubits, channels, attempt_success, cost_weight, utility_weight
    ):
        graph = build_chain_graph(num_nodes, qubits, channels, attempt_success)
        request = SDPair(source=0, destination=num_nodes - 1)
        route = Route.from_nodes(list(range(num_nodes)))
        context = SlotContext(
            t=0,
            graph=graph,
            snapshot=graph.full_snapshot(),
            requests=(request,),
            candidate_routes={request: (route,)},
        )
        outcome = allocate(
            context, {request: route},
            utility_weight=utility_weight, cost_weight=cost_weight,
        )
        assert outcome.feasible
        decision = SlotDecision(selection={request: route}, allocation=dict(outcome.allocation))
        assert decision.respects_snapshot(context.snapshot)

        # The chosen allocation's objective is at least the one-channel-per-edge
        # objective (that allocation is always feasible here).
        minimum = {key: 1 for key in route.edges}
        minimum_objective = (
            utility_weight
            * sum(math.log(graph.link_success(key, 1)) for key in route.edges)
            - cost_weight * len(route.edges)
        )
        achieved = (
            utility_weight
            * sum(
                math.log(graph.link_success(key, outcome.allocation[(request, key)]))
                for key in route.edges
            )
            - cost_weight * outcome.cost
        )
        assert achieved >= minimum_objective - 1e-6

    @given(
        successes=st.lists(st.floats(0.2, 0.9), min_size=2, max_size=6),
        capacity_slack=st.integers(0, 12),
        cost_weight=st.floats(0.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_relax_and_round_never_exceeds_capacity(self, successes, capacity_slack, cost_weight):
        capacity = len(successes) + capacity_slack
        kernel = bind_kernel(
            star_context(successes, capacity), utility_weight=10.0, cost_weight=cost_weight
        )
        rounded = kernel.outcome_for(tuple(0 for _ in successes)).integer_solution
        assert rounded.feasible
        assert sum(rounded.values) <= capacity + 1e-9
        assert all(value >= 1 for value in rounded.values)


class TestObjectiveConsistencyProperties:
    @given(
        allocations=st.lists(st.integers(1, 6), min_size=3, max_size=3),
        attempt_success=st.floats(1e-4, 2e-3),
    )
    @settings(max_examples=40, deadline=None)
    def test_decision_utility_matches_channel_formulas(self, allocations, attempt_success):
        graph = build_chain_graph(4, qubits=20, channels=10, attempt_success=attempt_success)
        request = SDPair(source=0, destination=3)
        route = Route.from_nodes([0, 1, 2, 3])
        allocation = {
            (request, key): value for key, value in zip(route.edges, allocations)
        }
        decision = SlotDecision(selection={request: route}, allocation=allocation)
        p = per_slot_success(attempt_success, 2000)
        expected = sum(
            math.log(multi_channel_success(p, value)) for value in allocations
        )
        assert decision.utility(graph) == pytest.approx(expected, rel=1e-9)
        assert decision.success_probability(graph, request) == pytest.approx(
            math.exp(expected), rel=1e-9
        )


class TestAccountingProperties:
    @given(costs=st.lists(st.integers(0, 60), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_queue_and_tracker_agree_on_overspending(self, costs):
        """q_T >= spent - C whenever q0 = 0 (the queue upper-bounds the deficit)."""
        horizon = len(costs)
        budget = 25.0 * horizon
        queue = VirtualQueue.for_budget(budget, horizon, initial_length=0.0)
        tracker = BudgetTracker(total_budget=budget, horizon=horizon)
        for cost in costs:
            queue.update(cost)
            tracker.record(cost)
        assert queue.length >= tracker.spent - budget - 1e-9
        assert tracker.violation() == pytest.approx(max(0.0, tracker.spent - budget))

    @given(
        costs=st.lists(st.integers(0, 40), min_size=2, max_size=40),
        q0=st.floats(0.0, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_larger_initial_queue_never_shrinks_final_queue(self, costs, q0):
        horizon = len(costs)
        budget = 20.0 * horizon
        small = VirtualQueue.for_budget(budget, horizon, initial_length=0.0)
        large = VirtualQueue.for_budget(budget, horizon, initial_length=q0)
        for cost in costs:
            small.update(cost)
            large.update(cost)
        assert large.length >= small.length - 1e-9


class TestPhysicsComposition:
    @given(fidelities=st.lists(st.floats(0.5, 1.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_chain_fidelity_equals_pairwise_swapping(self, fidelities):
        sequential = fidelities[0]
        for fidelity in fidelities[1:]:
            sequential = fidelity_after_swap(sequential, fidelity)
        assert fidelity_of_chain(fidelities) == pytest.approx(sequential, rel=1e-9)

    @given(
        attempt_success=st.floats(1e-5, 1e-2),
        attempts=st.integers(100, 5000),
        channels=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_channel_composition_is_equivalent_to_pooled_attempts(
        self, attempt_success, attempts, channels
    ):
        """n channels of A attempts behave like one channel of n·A attempts."""
        per_channel = per_slot_success(attempt_success, attempts)
        combined = multi_channel_success(per_channel, channels)
        pooled = per_slot_success(attempt_success, attempts * channels)
        assert combined == pytest.approx(pooled, rel=1e-9)
