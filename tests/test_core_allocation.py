"""Algorithm 2 on real slot contexts: the kernel's rows and allocations."""

import pytest

from repro.network.graph import ResourceSnapshot, edge_key
from repro.core.problem import SlotContext
from repro.solvers.kernel import KernelCache

from conftest import allocate, make_context


def single_request_selection(context):
    request = context.requests[0]
    return request, {request: context.routes_for(request)[0]}


def compiled_rows(context, selection, budget_cap=None):
    """The kernel's compiled rows for a fixed selection, with global row ids."""
    requests = list(selection)
    kernel = KernelCache().bind(
        context, requests, [[selection[r]] for r in requests], budget_cap=budget_cap
    )
    combo, capacities = kernel.rows_for(tuple(0 for _ in requests))
    structure = kernel._structure
    return combo, capacities, structure


class TestBuildProblem:
    def test_one_variable_per_route_edge(self, line_context):
        request, selection = single_request_selection(line_context)
        combo, _, _ = compiled_rows(line_context, selection)
        route = selection[request]
        assert combo.n == route.hops
        outcome = allocate(line_context, selection)
        assert list(outcome.allocation) == [(request, key) for key in route.edges]

    def test_node_constraints_match_snapshot(self, line_context):
        request, selection = single_request_selection(line_context)
        combo, capacities, structure = compiled_rows(line_context, selection)
        node_rows = {
            node: list(combo.order_array).index(row)
            for node, row in structure.node_row.items()
            if row in combo.order_array
        }
        # Route 0-1-2-3 touches all four nodes.
        assert len(node_rows) == 4
        assert capacities[node_rows[0]] == line_context.snapshot.available_qubits(0)

    def test_edge_constraints_match_snapshot(self, line_context):
        request, selection = single_request_selection(line_context)
        combo, capacities, structure = compiled_rows(line_context, selection)
        edge_rows = [
            list(combo.order_array).index(row)
            for row in structure.edge_row.values()
            if row in combo.order_array
        ]
        assert len(edge_rows) == 3
        assert all(capacities[row] == 6 for row in edge_rows)

    def test_shared_edge_groups_both_requests(self, line_graph):
        context = make_context(line_graph, [(0, 2), (1, 3)])
        selection = {
            request: context.routes_for(request)[0] for request in context.requests
        }
        combo, _, structure = compiled_rows(context, selection)
        shared = list(combo.order_array).index(structure.edge_row[edge_key(1, 2)])
        assert combo.membership[shared].sum() == 2  # both requests traverse edge (1, 2)

    def test_budget_cap_constraint_added(self, line_context):
        request, selection = single_request_selection(line_context)
        combo, capacities, structure = compiled_rows(line_context, selection, budget_cap=7.0)
        assert combo.order_array[-1] == structure.budget_row
        assert capacities[-1] == 7.0


class TestAllocate:
    def test_allocation_covers_every_route_edge(self, line_context):
        request, selection = single_request_selection(line_context)
        outcome = allocate(line_context, selection)
        route = selection[request]
        assert set(outcome.allocation.keys()) == {(request, key) for key in route.edges}
        assert all(value >= 1 for value in outcome.allocation.values())
        assert outcome.feasible

    def test_capacity_constraints_respected(self, line_context):
        request, selection = single_request_selection(line_context)
        outcome = allocate(line_context, selection)
        per_edge = outcome.edge_allocation(request)
        for key, value in per_edge.items():
            assert value <= line_context.snapshot.available_channels(key)

    def test_cost_matches_allocation(self, line_context):
        request, selection = single_request_selection(line_context)
        outcome = allocate(line_context, selection)
        assert outcome.cost == sum(outcome.allocation.values())

    def test_budget_cap_enforced(self, line_context):
        request, selection = single_request_selection(line_context)
        outcome = allocate(line_context, selection, budget_cap=4.0)
        assert outcome.feasible
        assert outcome.cost <= 4

    def test_infeasible_budget_cap_flagged(self, line_context):
        request, selection = single_request_selection(line_context)
        # The route has 3 edges; a cap of 2 cannot fit one channel per edge.
        outcome = allocate(line_context, selection, budget_cap=2.0)
        assert not outcome.feasible

    def test_cost_weight_reduces_spending(self, line_context):
        request, selection = single_request_selection(line_context)
        free = allocate(line_context, selection, utility_weight=1.0, cost_weight=0.0)
        priced = allocate(line_context, selection, utility_weight=1.0, cost_weight=0.5)
        assert priced.cost <= free.cost

    def test_empty_selection(self, line_context):
        outcome = allocate(line_context, {})
        assert outcome.allocation == {}
        assert outcome.feasible
        assert outcome.cost == 0

    def test_objective_matches_decision_recomputation(self, line_context, line_graph):
        """The reported objective equals V·Σ log P − q·cost recomputed from the allocation."""
        import math

        request, selection = single_request_selection(line_context)
        v, q = 100.0, 3.0
        outcome = allocate(line_context, selection, utility_weight=v, cost_weight=q)
        route = selection[request]
        log_p = sum(
            math.log(line_graph.link_success(key, outcome.allocation[(request, key)]))
            for key in route.edges
        )
        assert outcome.objective == pytest.approx(v * log_p - q * outcome.cost, rel=1e-9)

    def test_tight_snapshot_limits_allocation(self, line_graph):
        context = make_context(line_graph, [(0, 3)])
        tight = SlotContext(
            t=0,
            graph=line_graph,
            snapshot=ResourceSnapshot(
                qubits={node: 2 for node in line_graph.nodes},
                channels={key: 2 for key in line_graph.edges},
            ),
            requests=context.requests,
            candidate_routes=context.candidate_routes,
        )
        request, selection = single_request_selection(tight)
        outcome = allocate(tight, selection)
        assert outcome.feasible
        decision_usage = {}
        for (req, key), value in outcome.allocation.items():
            for endpoint in key:
                decision_usage[endpoint] = decision_usage.get(endpoint, 0) + value
        assert all(value <= 2 for value in decision_usage.values())
