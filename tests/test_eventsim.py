"""Tests for the event-driven backend (repro.simulation.eventsim).

The headline contract: at zero classical-signaling latency the event-driven
backend reproduces the slotted backend's realized outcomes exactly (same RNG
streams, consumed in the same order), and with latency switched on requests
start missing their slot deadline.
"""

import dataclasses

import pytest

from repro import api
from repro.analysis.stats import merge_stat_mappings
from repro.api.records import result_from_dict, result_to_dict
from repro.core.baselines import MyopicFixedPolicy
from repro.core.oscar import OscarPolicy
from repro.experiments import fig3_time_evolving, fig5_budget, fig10_timing
from repro.experiments.config import ExperimentConfig
from repro.simulation.engine import SlottedSimulator, build_simulator
from repro.simulation.eventsim import (
    EventDrivenSimulator,
    TimingModel,
    edge_latency_key,
    first_success_attempt,
)
from repro.workload.requests import UniformRequestProcess
from repro.workload.traces import generate_trace

from conftest import make_line_graph


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
        slotted = fig3_time_evolving.run(config)
        event = fig3_time_evolving.run(config.with_overrides(backend="event"))
        assert slotted.format_tables() == event.format_tables()

    def test_fig5_tables_identical_at_zero_latency(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        slotted = fig5_budget.run(config, budgets=[150.0, 250.0])
        event = fig5_budget.run(
            config.with_overrides(backend="event"), budgets=[150.0, 250.0]
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
        result = fig10_timing.run(config, latencies=[0.0, 0.4], trials=1)
        throughput = result.throughput
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
        payload = result_to_dict(result)
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
