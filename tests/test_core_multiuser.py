"""Tests for repro.core.multiuser (several tenants sharing one QDN)."""

import pytest

from repro.core.baselines import MyopicFixedPolicy
from repro.core.multiuser import MultiUserSimulator, QDNUser
from repro.core.oscar import OscarPolicy
from repro.workload.requests import UniformRequestProcess

from conftest import make_line_graph


def make_user(name, horizon, budget=80.0, oscar=True, max_pairs=2):
    if oscar:
        policy = OscarPolicy(
            total_budget=budget, horizon=horizon, trade_off_v=100.0,
            initial_queue=2.0, gamma=10.0, gibbs_iterations=10,
        )
    else:
        policy = MyopicFixedPolicy(
            total_budget=budget, horizon=horizon, gamma=10.0, gibbs_iterations=10
        )
    return QDNUser(
        name=name,
        policy=policy,
        request_process=UniformRequestProcess(min_pairs=1, max_pairs=max_pairs),
        total_budget=budget,
    )


@pytest.fixture(scope="module")
def shared_outcome():
    horizon = 8
    graph = make_line_graph(num_nodes=6, qubits=14, channels=7)
    users = [make_user("alice", horizon), make_user("bob", horizon, oscar=False)]
    simulator = MultiUserSimulator(graph=graph, users=users, horizon=horizon)
    return simulator.run(seed=3), horizon, graph


class TestMultiUserSimulator:
    def test_every_user_gets_a_full_result(self, shared_outcome):
        outcome, horizon, _ = shared_outcome
        assert set(outcome.user_results.keys()) == {"alice", "bob"}
        for result in outcome.user_results.values():
            assert len(result.records) == horizon

    def test_result_names_mention_policy(self, shared_outcome):
        outcome, _, _ = shared_outcome
        assert outcome.user_results["alice"].policy_name == "alice:OSCAR"
        assert outcome.user_results["bob"].policy_name == "bob:MF"

    def test_provider_records_cover_horizon(self, shared_outcome):
        outcome, horizon, _ = shared_outcome
        assert len(outcome.provider_records) == horizon
        for record in outcome.provider_records:
            assert 0.0 <= record.qubit_utilisation <= 1.0
            assert 0.0 <= record.channel_utilisation <= 1.0
            assert record.served_requests <= record.total_requests

    def test_provider_cost_is_sum_of_user_costs(self, shared_outcome):
        outcome, horizon, _ = shared_outcome
        for t in range(horizon):
            user_cost = sum(
                result.records[t].cost for result in outcome.user_results.values()
            )
            assert outcome.provider_records[t].total_cost == user_cost

    def test_aggregate_usage_never_exceeds_capacity(self, shared_outcome):
        """Combined per-slot usage stays within the hardware (no double booking)."""
        outcome, horizon, graph = shared_outcome
        total_qubits = sum(graph.qubit_capacity(node) for node in graph.nodes)
        for record in outcome.provider_records:
            assert record.qubit_utilisation <= 1.0 + 1e-9
            # Each allocated channel consumes a qubit at both endpoints.
            assert record.total_cost * 2 <= total_qubits

    def test_average_utilisation_and_served_fraction(self, shared_outcome):
        outcome, _, _ = shared_outcome
        utilisation = outcome.provider_average_utilisation()
        assert 0.0 < utilisation["qubits"] <= 1.0
        assert 0.0 < utilisation["channels"] <= 1.0
        assert 0.0 < outcome.total_served_fraction() <= 1.0

    def test_reproducible_given_seed(self):
        horizon = 5
        graph = make_line_graph(num_nodes=5, qubits=12, channels=6)
        users = [make_user("u1", horizon), make_user("u2", horizon, oscar=False)]
        first = MultiUserSimulator(graph=graph, users=users, horizon=horizon).run(seed=9)

        users2 = [make_user("u1", horizon), make_user("u2", horizon, oscar=False)]
        second = MultiUserSimulator(graph=graph, users=users2, horizon=horizon).run(seed=9)
        assert (
            first.user_results["u1"].per_slot_costs()
            == second.user_results["u1"].per_slot_costs()
        )

    def test_contention_reduces_service_quality(self):
        """Adding tenants lowers (or at best preserves) each user's success rate."""
        horizon = 6
        graph = make_line_graph(num_nodes=5, qubits=8, channels=4)

        alone = MultiUserSimulator(
            graph=graph, users=[make_user("solo", horizon, max_pairs=3)], horizon=horizon
        ).run(seed=5)

        crowded_users = [
            make_user("solo", horizon, max_pairs=3),
            make_user("noisy-1", horizon, max_pairs=3, oscar=False),
            make_user("noisy-2", horizon, max_pairs=3, oscar=False),
        ]
        crowded = MultiUserSimulator(
            graph=graph, users=crowded_users, horizon=horizon
        ).run(seed=5)

        solo_alone = alone.user_results["solo"].average_success_rate()
        solo_crowded = crowded.user_results["solo"].average_success_rate()
        assert solo_crowded <= solo_alone + 0.05

    def test_duplicate_user_names_rejected(self):
        graph = make_line_graph(num_nodes=4)
        users = [make_user("same", 5), make_user("same", 5)]
        with pytest.raises(ValueError):
            MultiUserSimulator(graph=graph, users=users, horizon=5)

    def test_empty_user_list_rejected(self):
        graph = make_line_graph(num_nodes=4)
        with pytest.raises(ValueError):
            MultiUserSimulator(graph=graph, users=[], horizon=5)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            QDNUser(name="", policy=MyopicFixedPolicy(total_budget=10.0, horizon=5))


def test_stamps_follow_the_slot_guard_time():
    from repro import api
    from repro.simulation.clock import SlotClock

    single = api.Scenario.tiny().with_policies("oscar").with_backend(
        "slotted", guard_time=0.01
    )
    tenants = single.with_user("a").with_user("b", "myopic-fixed")
    single_record = single.run()
    tenants_record = tenants.run()
    (expected,) = single_record.trials[0].values()
    stamps = [(r.slot_start_s, r.slot_end_s) for r in expected.records]
    clock = SlotClock(attempts_per_slot=single.config.attempts_per_slot, guard_time=0.01)
    assert stamps[1] == (clock.slot_start(1), clock.slot_end(1))
    for result in tenants_record.trials[0].values():
        assert [(r.slot_start_s, r.slot_end_s) for r in result.records] == stamps
    assert tenants_record.wall_time_s() == single_record.wall_time_s()
