"""Tests for the event-driven backend (repro.simulation.eventsim).

The headline contract: at zero classical-signaling latency the event-driven
backend reproduces the slotted backend's realized outcomes exactly (same RNG
streams, consumed in the same order), and with latency switched on requests
start missing their slot deadline.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.stats import merge_stat_mappings
from repro.api.records import result_from_dict, result_to_dict
from repro.core.baselines import MyopicFixedPolicy
from repro.core.oscar import OscarPolicy
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.network.routes import Route
from repro.simulation.engine import SlottedSimulator, build_simulator
from repro.simulation.eventsim import (
    EventDrivenSimulator,
    EventStats,
    ProtocolLane,
    RouteTimeline,
    TimingModel,
    edge_latency_key,
    first_success_attempt,
    route_timeline,
)
from repro.simulation.link_layer import LinkLayerSimulator
from repro.workload.requests import UniformRequestProcess
from repro.workload.traces import generate_trace

from conftest import make_line_graph, result_to_v2_dict


@pytest.fixture
def small_setup():
    graph = make_line_graph(num_nodes=5, qubits=16, channels=8)
    trace = generate_trace(
        graph,
        horizon=6,
        request_process=UniformRequestProcess(min_pairs=1, max_pairs=2),
        seed=3,
    )
    return graph, trace


def make_oscar(horizon=6, budget=60.0):
    return OscarPolicy(
        total_budget=budget,
        horizon=horizon,
        trade_off_v=100.0,
        initial_queue=2.0,
        gamma=10.0,
        gibbs_iterations=10,
    )


def make_mf(horizon=6, budget=60.0):
    return MyopicFixedPolicy(
        total_budget=budget, horizon=horizon, gamma=10.0, gibbs_iterations=10
    )


class TestZeroLatencyEquivalence:
    @pytest.mark.parametrize("policy_factory", [make_oscar, make_mf])
    def test_per_slot_outcomes_identical(self, small_setup, policy_factory):
        graph, trace = small_setup
        slotted = SlottedSimulator(graph=graph, trace=trace, total_budget=60.0)
        event = EventDrivenSimulator(graph=graph, trace=trace, total_budget=60.0)
        a = slotted.run(policy_factory(), seed=11)
        b = event.run(policy_factory(), seed=11)
        assert a.policy_name == b.policy_name
        for ra, rb in zip(a.records, b.records):
            assert ra.num_served == rb.num_served
            assert ra.cost == rb.cost
            assert ra.success_probabilities == rb.success_probabilities
            assert ra.realized_successes == rb.realized_successes
            assert ra.slot_start_s == rb.slot_start_s
            assert ra.slot_end_s == rb.slot_end_s
        assert a.summary() == b.summary()
        stats = b.diagnostics["eventsim"]
        assert stats["deadline_misses"] == 0
        assert stats["delivered"] == sum(
            sum(record.realized_successes) for record in b.records
        )

    def test_build_simulator_dispatch(self, small_setup):
        graph, trace = small_setup
        assert isinstance(build_simulator(graph, trace), SlottedSimulator)
        event = build_simulator(graph, trace, timing=TimingModel(backend="event"))
        assert isinstance(event, EventDrivenSimulator)
        with pytest.raises(ValueError):
            TimingModel(backend="quantum")

    def test_fig3_tables_identical_at_zero_latency(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=5, trials=1)
        slotted = figures.run("fig3", config)
        event = figures.run("fig3", config.with_overrides(backend="event"))
        assert slotted.format_tables() == event.format_tables()

    def test_fig5_tables_identical_at_zero_latency(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        slotted = figures.run("fig5", config, values=[150.0, 250.0])
        event = figures.run(
            "fig5", config.with_overrides(backend="event"), values=[150.0, 250.0]
        )
        assert slotted.format_tables() == event.format_tables()


class TestLatencyEffects:
    def test_latency_causes_deadline_misses(self, small_setup):
        graph, trace = small_setup
        baseline = SlottedSimulator(graph=graph, trace=trace, total_budget=60.0).run(
            make_oscar(), seed=7
        )
        delayed = EventDrivenSimulator(
            graph=graph,
            trace=trace,
            total_budget=60.0,
            timing=TimingModel(signaling_latency_s=0.4),
        ).run(make_oscar(), seed=7)
        stats = delayed.diagnostics["eventsim"]
        assert stats["deadline_misses"] > 0
        assert delayed.realized_success_rate() < baseline.realized_success_rate()
        # Decisions are unaffected — latency only bites at confirmation time.
        for ra, rb in zip(baseline.records, delayed.records):
            assert ra.num_served == rb.num_served

    def test_blind_fault_interruption_is_not_a_deadline_miss(self):
        # At zero latency every confirmation lands in time, so a request a
        # blind fault voids after it confirmed is interrupted, never late.
        record = (
            api.Scenario.tiny()
            .with_backend("event")
            .with_faults(edge_mtbf=20.0, mttr=3.0, aware=False)
            .with_trials(1)
            .run()
        )
        assert record.stats("faults")["requests_interrupted"] > 0
        assert record.stats("eventsim")["deadline_misses"] == 0

    def test_guard_time_recovers_latency_losses(self, small_setup):
        graph, trace = small_setup
        baseline = SlottedSimulator(graph=graph, trace=trace, total_budget=60.0).run(
            make_oscar(), seed=7
        )
        # One-way latency 50 ms; a one-second guard band absorbs every
        # herald/outcome round trip a 4-hop route can accumulate.
        guarded = EventDrivenSimulator(
            graph=graph,
            trace=trace,
            total_budget=60.0,
            timing=TimingModel(signaling_latency_s=0.05, guard_time=1.0),
        ).run(make_oscar(), seed=7)
        assert guarded.diagnostics["eventsim"]["deadline_misses"] == 0
        for ra, rb in zip(baseline.records, guarded.records):
            assert ra.realized_successes == rb.realized_successes
            # The guard band is visible in the wall-clock slot boundaries.
            assert rb.slot_end_s - rb.slot_start_s == pytest.approx(
                graph.attempts_per_slot * 165e-6 + 1.0
            )

    def test_per_edge_latency_map(self, small_setup):
        graph, trace = small_setup
        timing = TimingModel(
            signaling_latency_s=0.01,
            edge_latency_s={edge_latency_key(1, 0): 0.5},
        )
        assert timing.latency_of((0, 1)) == pytest.approx(0.5)
        assert timing.latency_of((1, 0)) == pytest.approx(0.5)
        assert timing.latency_of((1, 2)) == pytest.approx(0.01)
        result = EventDrivenSimulator(
            graph=graph, trace=trace, total_budget=60.0, timing=timing
        ).run(make_oscar(), seed=7)
        assert result.horizon == 6

    def test_timing_model_validation(self):
        with pytest.raises(ValueError):
            TimingModel(signaling_latency_s=-0.1)
        with pytest.raises(ValueError):
            TimingModel(guard_time=-1.0)
        with pytest.raises(ValueError):
            TimingModel(edge_latency_s={"a|b": -0.5})


class TestFirstSuccessAttempt:
    def test_certain_success_is_first_attempt(self):
        assert first_success_attempt(0.5, 1.0, 4000) == 1

    def test_impossible_success_lands_on_last_attempt(self):
        assert first_success_attempt(0.5, 0.0, 4000) == 4000

    def test_monotone_in_uniform(self):
        ticks = [first_success_attempt(u, 1e-3, 4000) for u in (0.01, 0.3, 0.9, 0.999)]
        assert ticks == sorted(ticks)
        assert ticks[0] >= 1 and ticks[-1] <= 4000

    def test_tiny_uniform_is_first_attempt(self):
        assert first_success_attempt(1e-12, 0.5, 4000) == 1

    @pytest.mark.parametrize(
        "u,attempts,tick",
        [(0.25, 10, 1), (0.6, 10, 2), (0.8, 10, 3), (0.99, 10, 7), (0.99, 5, 5)],
    )
    def test_truncated_geometric_quantile(self, u, attempts, tick):
        # With q = 1/2, tick k takes the uniforms in (1 − 2^(1−k), 1 − 2^−k],
        # and ticks past the window land on its last attempt.
        assert first_success_attempt(u, 0.5, attempts) == tick

    @given(
        u=st.floats(0.0, 1.0, exclude_max=True),
        attempt_success=st.floats(1e-9, 1.0),
        attempts=st.integers(1, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_tick_lies_in_the_attempt_window(self, u, attempt_success, attempts):
        assert 1 <= first_success_attempt(u, attempt_success, attempts) <= attempts


def timed(generated, latencies, deadline=1.0):
    """``route_timeline`` on fresh counters: the timeline and the counters."""
    stats = EventStats()
    return route_timeline(generated, latencies, deadline, stats), stats.to_dict()


def counters(**nonzero):
    """An ``EventStats`` mapping whose counters are zero except ``nonzero``."""
    return {**EventStats().to_dict(), **nonzero}


def delivery_lane(setup):
    """An event lane with the physical layer off, to run its delivery step."""
    graph, trace = setup
    simulator = EventDrivenSimulator(graph=graph, trace=trace, total_budget=60.0)
    return ProtocolLane(simulator, None, (None, None, None), None)


class TestRouteTimeline:
    def test_three_hop_times_dwells_and_counters(self, small_setup):
        # Dyadic times keep every sum exact.  Heralds r = (0.1875, 0.5, 0.5);
        # v_1 swaps at max(r_0, r_1) = 0.5; its outcome reaches v_2 at 0.625,
        # so v_2 swaps at max(0.625, r_2) = 0.625; the end node confirms at
        # 0.625 + 0.25.
        lane = delivery_lane(small_setup)
        timeline = route_timeline([0.125, 0.375, 0.25], [0.0625, 0.125, 0.25], 1.0, lane.stats)
        assert timeline.confirmed_at == 0.875
        assert timeline.dwells == [0.5 - 0.125, 0.5 - 0.375, 0.625 - 0.25]
        lane.chain(0, [(Route.from_nodes([0, 1, 2, 3]), {})], [True], 0, [timeline])
        # 3 generations, 3 heralds, 1 swap message and the confirmation.
        assert lane.stats.to_dict() == counters(
            events=8,
            pairs_generated=3,
            heralds=3,
            swap_messages=1,
            confirmations=1,
            delivered=1,
            messages=5,
        )

    @pytest.mark.parametrize(
        "generated,latencies,events",
        [
            ([0.75], [0.0], 2),  # the generation and its herald
            ([0.25], [0.5], 2),  # the herald, which confirms one hop
            ([0.25, 0.25], [0.25, 0.25], 5),  # the confirmation message
        ],
    )
    def test_event_exactly_at_the_deadline_happens(self, generated, latencies, events):
        timeline, stats = timed(generated, latencies, deadline=0.75)
        assert timeline.confirmed_at == 0.75
        hops = len(generated)
        assert stats == counters(
            events=events, pairs_generated=hops, heralds=hops, confirmations=1
        )

    def test_herald_after_the_deadline_does_not_happen(self):
        # r_1 = 0.75 is late, so v_1 never swaps.
        timeline, stats = timed([0.25, 0.25], [0.25, 0.5], deadline=0.625)
        assert timeline == (None, None)
        assert stats == counters(events=3, pairs_generated=2, heralds=1, deadline_misses=1)

    def test_swap_message_after_the_deadline_does_not_happen(self):
        # v_1 swaps at 0.75, but its outcome would reach v_2 only at 1.25.
        timeline, stats = timed([0.25, 0.25, 0.25], [0.25, 0.5, 0.0], deadline=1.0)
        assert timeline == (None, None)
        assert stats == counters(events=6, pairs_generated=3, heralds=3, deadline_misses=1)

    def test_one_hop_confirms_at_its_herald(self, small_setup):
        lane = delivery_lane(small_setup)
        timeline = route_timeline([0.25], [0.125], 1.0, lane.stats)
        assert timeline.confirmed_at == 0.375
        assert timeline.dwells == [0.125]
        lane.chain(0, [(Route.from_nodes([0, 1]), {})], [True], 0, [timeline])
        # No confirmation event and no message beyond the herald.
        assert lane.stats.to_dict() == counters(
            events=2, pairs_generated=1, heralds=1, confirmations=1, delivered=1, messages=1
        )

    def test_failed_link_is_not_a_deadline_miss(self):
        timeline, stats = timed([0.25, None, 0.5], [0.0, 0.0, 0.0])
        assert timeline == (None, None)
        assert stats == counters(events=4, pairs_generated=2, heralds=2)

    @given(
        generated=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_latency_only_delays_the_zero_latency_confirmation(self, generated, data):
        hops = len(generated)
        zero, _ = timed(generated, [0.0] * hops)
        assert zero.confirmed_at == max(generated)
        latencies = data.draw(st.lists(st.floats(0.0, 0.5), min_size=hops, max_size=hops))
        raised = list(latencies)
        raised[data.draw(st.integers(0, hops - 1))] += data.draw(
            st.floats(0.0, 0.5, exclude_min=True)
        )
        before, _ = timed(generated, latencies)
        after, _ = timed(generated, raised)
        if after.confirmed_at is not None:
            assert before.confirmed_at is not None
            assert before.confirmed_at <= after.confirmed_at

    def test_later_swap_waits_for_its_right_herald(self):
        # v_1 swaps at 0.25 and its outcome reaches v_2 at 0.375, but v_2's
        # right-hand herald only arrives at r_2 = 0.625.
        timeline, stats = timed([0.125, 0.125, 0.5], [0.125, 0.125, 0.125])
        assert timeline.confirmed_at == 0.75
        assert timeline.dwells == [0.125, 0.125, 0.125]
        assert stats == counters(
            events=8, pairs_generated=3, heralds=3, swap_messages=1, confirmations=1
        )

    def test_four_hop_swaps_run_left_to_right(self):
        # Heralds r = (0.0625, 0.3125, 0.1875, 0.0625); the swaps fire at
        # 0.3125, 0.375 and 0.4375, each one latency after the one to its
        # left, so the rightmost pair, though generated first, waits longest.
        timeline, stats = timed([0.0, 0.25, 0.125, 0.0], [0.0625] * 4)
        assert timeline.confirmed_at == 0.5
        assert timeline.dwells == [0.3125, 0.0625, 0.25, 0.4375]
        assert stats == counters(
            events=11, pairs_generated=4, heralds=4, swap_messages=2, confirmations=1
        )

    def test_one_hop_late_herald_is_a_deadline_miss(self):
        timeline, stats = timed([0.5], [0.75])
        assert timeline == (None, None)
        assert stats == counters(events=1, pairs_generated=1, deadline_misses=1)

    @pytest.mark.parametrize("failed", [0, 1, 2])
    def test_failed_link_anywhere_excuses_late_heralds(self, failed):
        # Every herald is late, yet a route with a failed link is no miss.
        generated = [0.25, 0.25, 0.25]
        generated[failed] = None
        timeline, stats = timed(generated, [1.0, 1.0, 1.0])
        assert timeline == (None, None)
        assert stats == counters(events=2, pairs_generated=2)

    def test_counters_accumulate_over_routes(self):
        stats = EventStats()
        route_timeline([0.25], [0.125], 1.0, stats)
        route_timeline([0.25, 0.25], [1.0, 1.0], 1.0, stats)
        assert stats.to_dict() == counters(
            events=4, pairs_generated=3, heralds=1, confirmations=1, deadline_misses=1
        )

    @given(
        generated=st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_counters_agree_with_the_timeline(self, generated, data):
        hops = len(generated)
        latencies = data.draw(st.lists(st.floats(0.0, 0.5), min_size=hops, max_size=hops))
        deadline = data.draw(st.floats(0.0, 1.5))
        timeline, stats = timed(generated, latencies, deadline)
        assert stats["heralds"] <= stats["pairs_generated"] <= hops
        assert stats["swap_messages"] <= max(hops - 2, 0)
        confirmation_event = stats["confirmations"] if hops > 1 else 0
        assert stats["events"] == (
            stats["pairs_generated"] + stats["heralds"] + stats["swap_messages"] + confirmation_event
        )
        unconfirmed = timeline.confirmed_at is None
        assert stats["confirmations"] == (not unconfirmed)
        assert stats["deadline_misses"] == (unconfirmed and None not in generated)
        if not unconfirmed:
            assert stats["heralds"] == hops
            assert max(generated) <= timeline.confirmed_at <= deadline
            assert len(timeline.dwells) == hops
            assert min(timeline.dwells) >= 0.0

    @given(generated=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_zero_latency_swaps_consume_at_the_latest_generation_so_far(self, generated):
        # The first swap consumes edges 0 and 1; the swap at v_k consumes
        # edge k once every pair up to it exists.
        timeline, _ = timed(generated, [0.0] * len(generated))
        consumed = [max(generated[: max(j, 1) + 1]) for j in range(len(generated))]
        assert timeline.dwells == [end - start for end, start in zip(consumed, generated)]


class TestEventStats:
    def test_mean_round_trips_without_deliveries_is_zero(self):
        assert EventStats().mean_round_trips() == 0.0

    def test_mean_round_trips_is_messages_per_delivery(self):
        assert EventStats(delivered=2, messages=8).mean_round_trips() == 4.0

    @pytest.mark.parametrize("hops", [2, 4])
    def test_delivery_counts_the_messages_of_confirmed_routes(self, small_setup, hops):
        lane = delivery_lane(small_setup)
        items = [(Route.from_nodes(range(hops + 1)), {}), (Route.from_nodes([0, 1]), {})]
        timelines = [RouteTimeline(1.0, [0.0] * hops), RouteTimeline(None, None)]
        lane.chain(0, items, [True, False], 0, timelines)
        # h heralds, h − 2 swap messages and the confirmation; the
        # unconfirmed route costs nothing.
        assert lane.stats.to_dict() == counters(delivered=1, messages=2 * hops - 1)


def served_items(channels):
    """Three served routes on the five-node line, ``channels`` on every edge."""
    routes = [Route.from_nodes([0, 1, 2]), Route.from_nodes([1, 2, 3, 4]), Route.from_nodes([3, 4])]
    return [(route, {key: channels for key in route.edges}) for route in routes]


class TestLaunchProtocols:
    def test_one_draw_matches_the_link_layer(self, small_setup):
        graph, trace = small_setup
        simulator = EventDrivenSimulator(graph=graph, trace=trace, total_budget=60.0)
        layer = LinkLayerSimulator(graph)
        timed_rng, slotted_rng = np.random.default_rng(7), np.random.default_rng(7)
        outcomes = []
        for t in range(8):
            timelines = simulator._launch_protocols(t, served_items(1), timed_rng, EventStats())
            realizations = layer.realize_routes(served_items(1), seed=slotted_rng)
            confirmed = [timeline.confirmed_at is not None for timeline in timelines]
            assert confirmed == [realization.succeeded for realization in realizations]
            outcomes += confirmed
        # Both outcomes occur, and both streams stand at the same position.
        assert set(outcomes) == {True, False}
        assert timed_rng.random() == slotted_rng.random()

    def test_one_hop_confirms_at_the_tick_of_its_uniform(self, small_setup):
        graph, trace = small_setup
        simulator = EventDrivenSimulator(graph=graph, trace=trace, total_budget=60.0)
        clock = simulator.clock
        route = Route.from_nodes([3, 4])
        (key,) = route.edges
        # All eight channels attempt in parallel each tick.
        per_tick = 1.0 - (1.0 - graph.attempt_success(key)) ** 8
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        for t in range(4):
            (timeline,) = simulator._launch_protocols(t, [(route, {key: 8})], rng, EventStats())
            (u,) = reference.random(1)
            tick = first_success_attempt(u, per_tick, clock.attempts_per_slot)
            assert timeline.confirmed_at == clock.slot_start(t) + tick * clock.attempt_duration

    def test_unallocated_edge_fails_its_route_without_a_draw(self, small_setup):
        graph, trace = small_setup
        simulator = EventDrivenSimulator(graph=graph, trace=trace, total_budget=60.0)
        route = Route.from_nodes([0, 1, 2])
        first, second = route.edges
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        stats = EventStats()
        timelines = simulator._launch_protocols(0, [(route, {first: 8, second: 0})], rng, stats)
        assert timelines == [(None, None)]
        # One uniform, for the allocated edge; a failed link is no miss.
        reference.random(1)
        assert rng.random() == reference.random()
        assert stats.to_dict() == counters(events=2, pairs_generated=1, heralds=1)


class TestPhysicalLayerOnEventBackend:
    def test_physical_diagnostics_and_dwell_decay(self, small_setup):
        graph, trace = small_setup
        physical = ExperimentConfig.tiny().with_overrides(
            physical_enabled=True,
            physical_swap_success=0.95,
            physical_memory_time=1.0,
        ).physical
        result = EventDrivenSimulator(
            graph=graph, trace=trace, total_budget=60.0, physical=physical
        ).run(make_oscar(), seed=5)
        stats = result.diagnostics["physical"]
        assert stats["requests"] > 0
        assert all(
            0.0 <= fidelity <= 1.0
            for record in result.records
            for fidelity in record.delivered_fidelities
        )
        for record in result.records:
            assert len(record.delivered_successes) == record.num_requests


class TestConfigAndScenario:
    def test_config_round_trip(self):
        config = ExperimentConfig.tiny().with_overrides(
            backend="event",
            signaling_latency_s=0.01,
            edge_latency_s={"0|1": 0.2},
            slot_guard_time_s=0.5,
        )
        rebuilt = ExperimentConfig.from_dict(dataclasses.asdict(config))
        timing = rebuilt.timing
        assert timing.backend == "event"
        assert timing.signaling_latency_s == pytest.approx(0.01)
        assert timing.guard_time == pytest.approx(0.5)
        assert timing.latency_of((0, 1)) == pytest.approx(0.2)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ExperimentConfig.tiny().with_overrides(backend="mystery")

    def test_scenario_with_backend(self):
        scenario = api.Scenario.tiny().with_backend(
            "event", latency=0.02, guard_time=0.1
        )
        timing = scenario.config.timing
        assert timing.backend == "event"
        assert timing.signaling_latency_s == pytest.approx(0.02)
        assert timing.guard_time == pytest.approx(0.1)
        payload = scenario.to_dict()
        assert api.Scenario.from_dict(payload).config.timing == timing

    def test_scenario_with_backend_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            api.Scenario.tiny().with_backend("event", warp_factor=9)

    def test_multiuser_rejects_event_backend(self):
        scenario = (
            api.Scenario.tiny().with_backend("event").with_user("lab", policy="oscar")
        )
        with pytest.raises(ValueError):
            scenario.validate()


class TestStudyAndRecords:
    def test_timing_axis_with_aliases(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        scenario = api.Scenario.from_config(config).with_policies("mf")
        result = (
            api.Study("timing")
            .base(scenario)
            .over("timing.backend", ["slotted", "event"], label="backend")
            .over("timing.latency", [0.0], label="latency_s")
            .run()
        )
        assert result.axis_values("backend") == ["slotted", "event"]
        slotted = result.record_at(backend="slotted", latency_s=0.0)
        event = result.record_at(backend="event", latency_s=0.0)
        assert slotted.summary() == event.summary()
        assert event.stats("eventsim") is not None
        assert slotted.stats("eventsim") is None
        assert result.stats("eventsim")["slots"] == event.stats("eventsim")["slots"]

    def test_merge_event_stats_skips_missing(self):
        merged = merge_stat_mappings([None, {"events": 2.0}, {"events": 3.0}])
        assert merged["events"] == 5.0
        assert merge_stat_mappings([None, None]) is None

    def test_run_record_event_stats(self):
        config = ExperimentConfig.tiny().with_overrides(
            horizon=4, trials=1, backend="event"
        )
        record = api.compare(config, policies=("mf",), trials=1)
        stats = record.stats("eventsim")
        assert stats is not None and stats["slots"] == 4

    def test_fig10_overlay(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        result = figures.run("fig10", config, values=[0.0, 0.4], trials=1)
        throughput = result.data["throughput"]
        assert set(throughput) == {"OSCAR (slotted)", "OSCAR (event)"}
        # Slotted is latency-blind; the event backend matches it at zero.
        assert throughput["OSCAR (slotted)"][0] == throughput["OSCAR (slotted)"][1]
        assert throughput["OSCAR (event)"][0] == throughput["OSCAR (slotted)"][0]
        tables = result.format_tables()
        assert "Fig. 10(a)" in tables and "Fig. 10(b)" in tables
        assert result.to_dict()["event_stats"] is not None


class TestPersistenceTimestamps:
    def test_slot_timestamps_round_trip(self, small_setup):
        graph, trace = small_setup
        result = SlottedSimulator(graph=graph, trace=trace, total_budget=60.0).run(
            make_oscar(), seed=2
        )
        rebuilt = result_from_dict(result_to_dict(result))
        for ra, rb in zip(result.records, rebuilt.records):
            assert ra.slot_start_s is not None
            assert rb.slot_start_s == ra.slot_start_s
            assert rb.slot_end_s == ra.slot_end_s

    def test_legacy_payload_without_timestamps(self, small_setup):
        graph, trace = small_setup
        result = SlottedSimulator(graph=graph, trace=trace, total_budget=60.0).run(
            make_oscar(), seed=2
        )
        payload = result_to_v2_dict(result)
        for entry in payload["records"]:
            del entry["slot_start_s"], entry["slot_end_s"]
        rebuilt = result_from_dict(payload)
        assert all(record.slot_start_s is None for record in rebuilt.records)


class TestCli:
    def test_backend_flags(self):
        from repro.cli import _config_from_args, build_parser

        arguments = build_parser().parse_args(["info", "--backend", "event"])
        assert _config_from_args(arguments).timing.backend == "event"

    def test_latency_flag_implies_event_backend(self):
        from repro.cli import _config_from_args, build_parser

        arguments = build_parser().parse_args(["info", "--signaling-latency", "0.25"])
        timing = _config_from_args(arguments).timing
        assert timing.backend == "event"
        assert timing.signaling_latency_s == pytest.approx(0.25)

    def test_health_line_includes_event_fragment(self):
        from repro.cli import _render_health_line

        line = _render_health_line(
            {
                "eventsim": {
                    "events": 10,
                    "delivered": 4,
                    "messages": 8,
                    "deadline_misses": 1,
                    "cutoff_expired_pairs": 0,
                }
            }
        )
        assert "eventsim 10 event(s)" in line
        assert "2.00 msg(s)/delivery" in line
        assert "1 deadline miss(es)" in line
