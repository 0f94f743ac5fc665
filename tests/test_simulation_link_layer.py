"""Tests for repro.simulation.link_layer."""

import pytest

from repro.network.graph import edge_key
from repro.network.routes import Route
from repro.simulation.link_layer import LinkLayerSimulator

from conftest import make_line_graph


@pytest.fixture
def fast_graph():
    """A line graph with a high per-attempt success so Monte-Carlo tests are cheap."""
    return make_line_graph(num_nodes=4, attempt_success=2e-3, attempts_per_slot=500)


class TestFastMode:
    def test_analytic_route_success_matches_paper_formula(self, fast_graph):
        simulator = LinkLayerSimulator(graph=fast_graph)
        route = Route.from_nodes([0, 1, 2])
        allocation = {edge_key(0, 1): 2, edge_key(1, 2): 3}
        p = fast_graph.slot_success(edge_key(0, 1))
        expected = (1 - (1 - p) ** 2) * (1 - (1 - p) ** 3)
        assert simulator.analytic_route_success(route, allocation) == pytest.approx(expected)

    def test_zero_allocation_never_succeeds(self, fast_graph, rng):
        simulator = LinkLayerSimulator(graph=fast_graph)
        route = Route.from_nodes([0, 1])
        realization = simulator.realize_route(route, {}, seed=rng)
        assert not realization.succeeded
        assert realization.failed_edges == (edge_key(0, 1),)

    def test_empirical_matches_analytic(self, fast_graph):
        simulator = LinkLayerSimulator(graph=fast_graph)
        route = Route.from_nodes([0, 1, 2])
        allocation = {edge_key(0, 1): 2, edge_key(1, 2): 2}
        analytic = simulator.analytic_route_success(route, allocation)
        empirical = simulator.empirical_route_success(route, allocation, trials=4000, seed=3)
        assert empirical == pytest.approx(analytic, abs=0.03)

    def test_edge_outcomes_reported_per_edge(self, fast_graph, rng):
        simulator = LinkLayerSimulator(graph=fast_graph)
        route = Route.from_nodes([0, 1, 2, 3])
        allocation = {key: 1 for key in route.edges}
        realization = simulator.realize_route(route, allocation, seed=rng)
        assert set(realization.edge_outcomes.keys()) == set(route.edges)
        assert realization.succeeded == all(realization.edge_outcomes.values())

    def test_invalid_trials_rejected(self, fast_graph):
        simulator = LinkLayerSimulator(graph=fast_graph)
        with pytest.raises(ValueError):
            simulator.empirical_route_success(Route.from_nodes([0, 1]), {}, trials=0)

    def test_invalid_parameters_rejected(self, fast_graph):
        with pytest.raises(ValueError):
            LinkLayerSimulator(graph=fast_graph, base_fidelity=1.5)
