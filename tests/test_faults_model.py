"""Tests for repro.faults.model: outage schedules, states and stats."""

import pytest

from repro.analysis.stats import merge_stat_mappings
from repro.faults.model import (
    HEALTHY,
    FaultModel,
    FaultSchedule,
    FaultState,
    FaultStats,
    Outage,
    fault_availability,
)

from conftest import make_diamond_graph, make_line_graph


class FakeRoute:
    """The two attributes :meth:`FaultState.blocks_route` reads."""

    def __init__(self, nodes, edges):
        self.node_set = frozenset(nodes)
        self.edges = tuple(edges)


class TestOutage:
    def test_coerce_from_sequence(self):
        outage = Outage.coerce(["edge", ("0", "1"), 5, 3])
        assert outage == Outage(kind="edge", element="0--1", start=5, duration=3)

    def test_coerce_passes_outage_through(self):
        outage = Outage(kind="node", element="2", start=0, duration=1)
        assert Outage.coerce(outage) is outage

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Outage(kind="link", element="0--1", start=0, duration=1)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            Outage(kind="node", element="0", start=-1, duration=1)
        with pytest.raises(ValueError):
            Outage(kind="node", element="0", start=0, duration=0)

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ValueError):
            Outage.coerce({"kind": "node"})


class TestFaultModel:
    def test_inert_detection(self):
        assert FaultModel().inert
        assert not FaultModel(node_mtbf=10.0).inert
        assert not FaultModel(outages=[["node", "0", 1, 1]]).inert

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            FaultModel(node_mtbf=-1.0)

    def test_rejects_nonpositive_mttr_with_transients(self):
        with pytest.raises(ValueError):
            FaultModel(edge_mtbf=10.0, mttr=0.0)

    def test_outages_coerced_in_post_init(self):
        model = FaultModel(outages=[["edge", ("1", "2"), 4, 2]])
        assert model.outages == (Outage("edge", "1--2", 4, 2),)


class TestFaultState:
    def test_healthy_is_falsy(self):
        assert not HEALTHY
        assert HEALTHY.down_elements == 0

    def test_blocks_route_by_node_and_edge(self):
        route = FakeRoute(nodes=(0, 1, 3), edges=((0, 1), (1, 3)))
        assert FaultState(down_nodes=frozenset({1})).blocks_route(route)
        assert FaultState(down_edges=frozenset({(1, 3)})).blocks_route(route)
        assert not FaultState(down_nodes=frozenset({2})).blocks_route(route)
        assert not FaultState(down_edges=frozenset({(0, 2)})).blocks_route(route)


class TestFaultSchedule:
    def test_same_seed_same_schedule(self):
        graph = make_line_graph()
        model = FaultModel(node_mtbf=20.0, edge_mtbf=15.0, mttr=3.0)
        first = FaultSchedule.build(model, graph, seed=42, horizon=50)
        second = FaultSchedule.build(model, graph, seed=42, horizon=50)
        assert first._states == second._states
        assert (first.node_failures, first.edge_failures, first.repairs) == (
            second.node_failures,
            second.edge_failures,
            second.repairs,
        )

    def test_different_seed_different_schedule(self):
        graph = make_line_graph()
        model = FaultModel(edge_mtbf=10.0, mttr=3.0)
        first = FaultSchedule.build(model, graph, seed=1, horizon=60)
        second = FaultSchedule.build(model, graph, seed=2, horizon=60)
        assert first._states != second._states

    def test_scheduled_outage_marks_exact_slots(self):
        graph = make_line_graph()
        model = FaultModel(outages=[["edge", ("1", "2"), 5, 3]])
        schedule = FaultSchedule.build(model, graph, seed=0, horizon=20)
        for t in (5, 6, 7):
            assert schedule.state_at(t).down_edges
        assert schedule.state_at(4) is HEALTHY
        assert schedule.state_at(8) is HEALTHY
        assert schedule.edge_failures == 1
        assert schedule.repairs == 1

    def test_outage_past_horizon_ignored(self):
        graph = make_line_graph()
        model = FaultModel(outages=[["node", "0", 100, 5]])
        schedule = FaultSchedule.build(model, graph, seed=0, horizon=20)
        assert schedule.degraded_slots() == 0
        assert schedule.node_failures == 0

    def test_unknown_element_raises(self):
        graph = make_line_graph()
        with pytest.raises(ValueError, match="unknown node"):
            FaultSchedule.build(
                FaultModel(outages=[["node", "99", 0, 1]]), graph, seed=0, horizon=10
            )
        with pytest.raises(ValueError, match="unknown edge"):
            FaultSchedule.build(
                FaultModel(outages=[["edge", "7--9", 0, 1]]), graph, seed=0, horizon=10
            )

    def test_availability_accounting(self):
        graph = make_line_graph(num_nodes=4)  # 4 nodes + 3 edges = 7 elements
        model = FaultModel(outages=[["node", "1", 2, 1]])
        schedule = FaultSchedule.build(model, graph, seed=0, horizon=10)
        assert schedule.num_elements == 7
        assert schedule.availability_at(0) == 1.0
        assert schedule.availability_at(2) == pytest.approx(1.0 - 1.0 / 7.0)
        assert schedule.down_element_slots() == 1
        assert schedule.degraded_slots() == 1

    def test_filter_routes_identity_when_healthy(self):
        graph = make_diamond_graph()
        schedule = FaultSchedule.build(FaultModel(), graph, seed=0, horizon=5)
        candidates = {"request": (FakeRoute((0, 1, 3), ((0, 1), (1, 3))),)}
        assert schedule.filter_routes(HEALTHY, candidates) is candidates

    def test_filter_routes_drops_blocked(self):
        graph = make_diamond_graph()
        schedule = FaultSchedule.build(FaultModel(), graph, seed=0, horizon=5)
        upper = FakeRoute((0, 1, 3), ((0, 1), (1, 3)))
        lower = FakeRoute((0, 2, 3), ((0, 2), (2, 3)))
        state = FaultState(down_nodes=frozenset({1}))
        filtered = schedule.filter_routes(state, {"r": (upper, lower)})
        assert filtered["r"] == (lower,)


class TestFaultStats:
    def test_observe_and_finalize(self):
        graph = make_line_graph(num_nodes=4)
        model = FaultModel(outages=[["edge", ("0", "1"), 1, 2]])
        schedule = FaultSchedule.build(model, graph, seed=0, horizon=4)
        stats = FaultStats()
        for t in range(4):
            stats.observe_slot(schedule, schedule.state_at(t))
        payload = stats.finalize(schedule)
        assert payload["slots"] == 4
        assert payload["element_slots"] == 4 * 7
        assert payload["down_element_slots"] == 2
        assert payload["degraded_slots"] == 2
        assert payload["edge_failures"] == 1
        assert payload["repairs"] == 1

    def test_merge_skips_none(self):
        assert merge_stat_mappings([None, None]) is None
        merged = merge_stat_mappings([{"slots": 2}, None, {"slots": 3, "repairs": 1}])
        assert merged == {"slots": 5, "repairs": 1}

    def test_fault_availability(self):
        assert fault_availability(None) is None
        assert fault_availability({}) is None
        assert fault_availability({"element_slots": 0}) is None
        availability = fault_availability(
            {"element_slots": 100, "down_element_slots": 5}
        )
        assert availability == pytest.approx(0.95)
