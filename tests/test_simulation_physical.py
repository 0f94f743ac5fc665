"""Tests for repro.simulation.physical — the physical-layer co-simulation.

The load-bearing guarantees:

* the batched engine and the per-pair reference engine are
  **bit-identical** under the same spawned RNG streams (outcomes, delivered
  fidelities and statistics), standalone, with and without measured dwells,
  and through full facade runs on both backends, serial and
  process-parallel;
* with the physical layer disabled (the default) the simulators consume
  exactly the historical random streams — nothing changes;
* the model threads end to end: ``ExperimentConfig`` → scenario builder →
  study axes → registry (fidelity-constrained wrapping) → records/stats.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.analysis.stats import merge_stat_mappings
from repro.api.records import trial_to_dict
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig, with_physical_defaults
from repro.network.routes import Route
from repro.physics.fidelity import fidelity_of_chain
from repro.simulation.physical import (
    PhysicalEngine,
    PhysicalModel,
    PhysicalStats,
    ReferencePhysicalEngine,
)
from repro.utils.rng import spawn_rngs
from repro.workload.budget import purification_rounds_within_budget


def make_items(rng, num_requests=12, max_hops=4, max_channels=6, fail_fraction=0.2):
    """Synthetic slot input: routes of random length, random allocations."""
    items = []
    for _ in range(num_requests):
        hops = int(rng.integers(1, max_hops + 1))
        route = Route.from_nodes(list(range(hops + 1)))
        allocation = {
            key: int(rng.integers(1, max_channels + 1)) for key in route.edges
        }
        links_ok = bool(rng.random() >= fail_fraction)
        items.append((route, allocation, links_ok))
    return items


def run_engine(engine, model_seed, slots=6, max_dwell=None):
    """The engine's outcomes over ``slots`` synthetic slots; with
    ``max_dwell``, each link's measured dwell is uniform on [0, max_dwell)."""
    outcomes = []
    item_rng = np.random.default_rng(2_000)
    dwell_rng = np.random.default_rng(3_000)
    draw_rngs = spawn_rngs(model_seed, slots)
    for slot in range(slots):
        items = make_items(item_rng)
        dwells = None
        if max_dwell is not None:
            dwells = [
                list(dwell_rng.uniform(0.0, max_dwell, route.hops)) if links_ok else None
                for route, _, links_ok in items
            ]
        outcomes.append(engine.realize_slot(items, seed=draw_rngs[slot], dwells=dwells))
    return outcomes


class TestEngineBitIdentity:
    @pytest.mark.parametrize("swap_success", [1.0, 0.9])
    @pytest.mark.parametrize("purify_rounds", [0, 2])
    def test_batched_matches_reference(self, swap_success, purify_rounds):
        model = PhysicalModel(
            swap_success=swap_success,
            link_fidelity=0.96,
            purify_rounds=purify_rounds,
            fidelity_target=0.6,
        )
        reference = ReferencePhysicalEngine(model)
        batched = PhysicalEngine(model)
        for ref, vec in zip(run_engine(reference, 7), run_engine(batched, 7)):
            assert ref == vec  # delivered, fidelities, fidelity_ok — exactly
        assert reference.stats == batched.stats

    def test_identity_survives_cutoff_pressure(self):
        model = PhysicalModel(
            swap_success=0.8,
            link_fidelity=0.9,
            memory_time=0.2,  # heavy decoherence: the cutoff bites
            cutoff_fidelity=0.55,
            purify_rounds=1,
        )
        reference = ReferencePhysicalEngine(model)
        batched = PhysicalEngine(model)
        assert run_engine(reference, 11) == run_engine(batched, 11)
        assert reference.stats == batched.stats
        assert reference.stats.cutoff_discards > 0

    def test_identity_with_measured_dwells_under_a_binding_cutoff(self):
        model = PhysicalModel(
            swap_success=0.8,
            link_fidelity=0.9,
            memory_time=0.2,
            cutoff_fidelity=0.55,
            purify_rounds=1,
            fidelity_target=0.6,
        )
        reference = ReferencePhysicalEngine(model)
        batched = PhysicalEngine(model)
        outcomes = run_engine(batched, 13, max_dwell=0.3)
        assert run_engine(reference, 13, max_dwell=0.3) == outcomes
        assert reference.stats == batched.stats
        # The dwells decide: some pairs expire, some deliveries survive them.
        assert reference.stats.cutoff_discards > 0
        assert sum(outcome.expired_pairs for outcome in outcomes) > 0
        assert reference.stats.delivered > 0
        # Without dwells the same slots run on the fixed slot dwell instead.
        assert run_engine(PhysicalEngine(model), 13) != outcomes


class TestEngineSemantics:
    def test_purification_rounds_gated_by_channel_budget(self):
        model = PhysicalModel(purify_rounds=2, link_fidelity=0.9)
        engine = model.build_engine()
        assert engine.plan_for(1).rounds == 0
        assert engine.plan_for(2).rounds == 1
        assert engine.plan_for(3).rounds == 1
        assert engine.plan_for(4).rounds == 2
        assert engine.plan_for(9).rounds == 2  # capped at the request
        assert engine.plan_for(4).pairs_consumed == 4
        for channels in (1, 2, 3, 4, 9):
            assert engine.plan_for(channels).rounds == purification_rounds_within_budget(
                channels, 2
            )

    def test_no_purification_below_bbpssw_threshold(self):
        model = PhysicalModel(purify_rounds=3, link_fidelity=0.5)
        assert model.build_engine().plan_for(16).rounds == 0

    def test_cutoff_discards_everything_when_memory_is_gone(self):
        model = PhysicalModel(memory_time=0.001, cutoff_fidelity=0.5)
        engine = model.build_engine()
        route = Route.from_nodes([0, 1, 2])
        allocation = {key: 2 for key in route.edges}
        outcome = engine.realize_slot([(route, allocation, True)], seed=0)
        assert outcome.delivered == (False,)
        assert engine.stats.cutoff_discards == 1
        assert engine.stats.delivered == 0

    def test_link_failures_skip_the_chain_and_draw_nothing(self):
        model = PhysicalModel(swap_success=0.5, purify_rounds=2)
        engine = model.build_engine()
        route = Route.from_nodes([0, 1, 2, 3])
        allocation = {key: 4 for key in route.edges}
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        outcome = engine.realize_slot([(route, allocation, False)], seed=rng)
        assert outcome.delivered == (False,)
        assert engine.stats.link_failures == 1
        assert engine.stats.attempts == 0
        assert rng.bit_generator.state == state_before

    def test_perfect_chain_delivers_chain_fidelity(self):
        model = PhysicalModel(
            swap_success=1.0, link_fidelity=0.98, dwell_fraction=0.0
        )
        engine = model.build_engine()
        route = Route.from_nodes([0, 1, 2, 3])
        allocation = {key: 1 for key in route.edges}
        outcome = engine.realize_slot([(route, allocation, True)], seed=1)
        assert outcome.delivered == (True,)
        assert outcome.fidelities[0] == fidelity_of_chain([0.98] * 3)

    def test_fidelity_target_classifies_deliveries(self):
        model = PhysicalModel(
            swap_success=1.0, link_fidelity=0.98, dwell_fraction=0.0,
            fidelity_target=0.95,
        )
        engine = model.build_engine()
        short = Route.from_nodes([0, 1])          # F = 0.98 ≥ 0.95
        long = Route.from_nodes(list(range(6)))   # 5 hops: F < 0.95
        items = [
            (short, {key: 1 for key in short.edges}, True),
            (long, {key: 1 for key in long.edges}, True),
        ]
        outcome = engine.realize_slot(items, seed=2)
        assert outcome.delivered == (True, True)
        assert outcome.fidelity_ok == (True, False)
        assert engine.stats.delivered == 2
        assert engine.stats.fidelity_served == 1

    def test_measured_dwells_decohere_each_stored_pair(self):
        model = PhysicalModel(swap_success=1.0, link_fidelity=0.95, memory_time=1.0)
        engine = model.build_engine()
        decay = model.decoherence_model().fidelity_after
        route = Route.from_nodes([0, 1, 2])
        items = [(route, {key: 1 for key in route.edges}, True)]
        short = engine.realize_slot(items, seed=0, dwells=[[0.0, 0.3]])
        assert short.delivered == (True,)
        assert short.fidelities[0] == fidelity_of_chain([decay(0.95, 0.0), decay(0.95, 0.3)])
        # A dwell below zero (clock jitter) waits no time at all.
        assert engine.realize_slot(items, seed=0, dwells=[[-1e-9, 0.3]]) == short
        longer = engine.realize_slot(items, seed=0, dwells=[[0.3, 0.6]])
        assert longer.fidelities[0] < short.fidelities[0]

    def test_expired_pairs_count_each_stored_pair_below_the_cutoff(self):
        model = PhysicalModel(
            swap_success=1.0, link_fidelity=0.95, memory_time=0.2, cutoff_fidelity=0.8
        )
        engine = model.build_engine()
        route = Route.from_nodes([0, 1, 2, 3])
        items = [(route, {key: 1 for key in route.edges}, True)]
        outcome = engine.realize_slot(items, seed=0, dwells=[[0.0, 1.0, 2.0]])
        assert outcome.delivered == (False,)
        assert outcome.expired_pairs == 2
        assert engine.stats.cutoff_discards == 1
        fresh = engine.realize_slot(items, seed=0, dwells=[[0.0, 0.0, 0.0]])
        assert fresh.delivered == (True,)
        assert fresh.expired_pairs == 0
        assert engine.stats.cutoff_discards == 1

    def test_no_memo_is_keyed_by_a_measured_dwell(self):
        engine = PhysicalModel(link_fidelity=0.95, purify_rounds=1).build_engine()
        outcomes = run_engine(engine, 5, slots=4, max_dwell=0.3)
        assert any(any(outcome.delivered) for outcome in outcomes)
        # Plans are keyed by channel count alone; chain fidelities of
        # measured dwells are never memoised.
        assert set(engine._plans) <= set(range(1, 7))
        assert engine._chain_cache == {}

    def test_realize_decision_pads_unserved_requests_and_threads_dwells(self):
        model = PhysicalModel(swap_success=1.0, link_fidelity=0.95, memory_time=1.0)
        engine = model.build_engine()
        route = Route.from_nodes([0, 1])
        items = [(route, {key: 1 for key in route.edges})] * 2
        outcome = engine.realize_decision(
            items, realized=[True, False], num_unserved=2, seed=0, dwells=[[0.2], None]
        )
        assert outcome.delivered == (True, False, False, False)
        assert outcome.fidelities == (
            model.decoherence_model().fidelity_after(0.95, 0.2), 0.0, 0.0, 0.0
        )
        assert outcome.fidelity_ok == (True, False, False, False)
        assert (engine.stats.requests, engine.stats.link_failures) == (2, 1)

    def test_stats_merge(self):
        a = PhysicalStats(requests=3, delivered=2, fidelity_sum=1.5)
        b = PhysicalStats(requests=4, delivered=1, fidelity_sum=0.7)
        merged = merge_stat_mappings([a.to_dict(), None, b.to_dict()])
        assert merged["requests"] == 7
        assert merged["delivered"] == 3
        assert merged["fidelity_sum"] == pytest.approx(2.2)
        assert merge_stat_mappings([None, "nope"]) is None

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PhysicalModel(swap_success=1.5)
        with pytest.raises(ValueError):
            PhysicalModel(purify_rounds=-1)


def scenario_with_physical(**overrides):
    return (
        api.Scenario.tiny()
        .with_policies("oscar", "mf")
        .with_physical(
            swap_success=0.95, purify_rounds=2, fidelity_target=0.6, **overrides
        )
    )


def record_payloads(record):
    return json.dumps([trial_to_dict(trial) for trial in record.trials], sort_keys=True)


def with_reference_engine(monkeypatch):
    """Make every run build :class:`ReferencePhysicalEngine`; returns the
    list of engines built."""
    built = []

    def build(model, attempts_per_slot):
        built.append(ReferencePhysicalEngine(model, attempts_per_slot))
        return built[-1]

    monkeypatch.setattr(PhysicalModel, "build_engine", build)
    return built


class TestFullRunIdentity:
    @pytest.mark.parametrize("backend", ["slotted", "event"])
    def test_engines_bit_identical_through_the_facade(self, backend, monkeypatch):
        scenario = scenario_with_physical(cutoff_fidelity=0.6, memory_time=0.5)
        if backend == "event":
            scenario = scenario.with_backend("event", latency=0.004)
        batched = scenario.run()
        built = with_reference_engine(monkeypatch)
        reference = scenario.run()
        assert built  # the reference engine ran
        assert record_payloads(batched) == record_payloads(reference)
        for layer in ("physical", "eventsim"):
            assert batched.stats(layer) == reference.stats(layer)
        if backend == "event":
            # Measured dwells decide some deliveries.
            assert reference.stats("eventsim")["cutoff_expired_pairs"] > 0

    def test_parallel_workers_bit_identical(self):
        base = scenario_with_physical().with_trials(2)
        serial = base.run(workers=1)
        parallel = base.run(workers=2)
        assert record_payloads(serial) == record_payloads(parallel)

    def test_study_units_bit_identical_to_session_trials(self):
        base = scenario_with_physical()
        study = api.Study("physical-identity").base(base).over(
            "budget.total_budget", [250.0]
        )
        serial = study.run(workers=1)
        split = api.Study("physical-identity").base(base).over(
            "budget.total_budget", [250.0]
        ).run(workers=2)
        assert record_payloads(serial.records[0]) == record_payloads(split.records[0])


class TestDisabledDefault:
    def test_disabled_run_has_no_physical_artifacts(self):
        record = api.Scenario.tiny().with_policies("mf").run()
        assert record.stats("physical") is None
        for trial in record.trials:
            for result in trial.values():
                assert "physical" not in result.diagnostics
                for slot in result.records:
                    assert slot.delivered_successes == ()
                    assert slot.fidelity_served == ()

    def test_disabled_summary_metrics_are_zero(self):
        record = api.Scenario.tiny().with_policies("mf").run()
        result = next(iter(record.trials[0].values()))
        assert result.has_physical_data is False
        assert result.delivered_success_rate() == 0.0
        assert result.mean_delivered_fidelity() == 0.0
        assert result.fidelity_served_rate() == 0.0

    def test_physical_metrics_absent_from_disabled_summaries(self):
        # Absence means "not simulated" — a disabled run must not print a
        # measured-zero fidelity, and legacy summary text stays unchanged.
        disabled = api.Scenario.tiny().with_policies("mf").run()
        result = next(iter(disabled.trials[0].values()))
        assert "mean_delivered_fidelity" not in result.summary()
        assert "mean_delivered_fidelity" not in disabled.summary()["MF"]
        enabled = scenario_with_physical().run()
        physical_result = next(iter(enabled.trials[0].values()))
        assert physical_result.has_physical_data is True
        assert "mean_delivered_fidelity" in physical_result.summary()
        assert "fidelity_served_rate" in enabled.summary()["OSCAR"]

    def test_series_reports_nan_for_unmeasured_physical_metrics(self):
        result = (
            api.Study("no-physical")
            .base(api.Scenario.tiny().with_policies("mf"))
            .over("budget.total_budget", [200.0])
            .run()
        )
        series = result.series("mean_delivered_fidelity")
        assert all(np.isnan(value) for value in series["MF"])

    def test_realize_false_with_physical_rejected(self):
        scenario = scenario_with_physical().with_realize(False)
        with pytest.raises(ValueError, match="realize"):
            scenario.run()


class TestRecordsAndStats:
    def test_run_record_aggregates_physical_stats(self):
        record = scenario_with_physical().run()
        stats = record.stats("physical")
        assert stats is not None
        assert stats["requests"] > 0
        assert stats["delivered"] <= stats["attempts"] <= stats["requests"]
        assert (
            stats["attempts"]
            == stats["delivered"]
            + stats["purify_failures"]
            + stats["cutoff_discards"]
            + stats["swap_failures"]
        )

    def test_study_aggregates_physical_stats(self):
        base = api.Scenario.tiny().with_policies("mf").with_physical()
        result = api.Study("physical-stats").base(base).over(
            "physical.swap_success", [0.9, 1.0]
        ).run()
        stats = result.stats("physical")
        assert stats is not None and stats["requests"] > 0

    def test_delivered_fields_roundtrip_through_json(self, tmp_path):
        record = scenario_with_physical().run()
        path = record.save(tmp_path / "record.json")
        loaded = api.RunRecord.load(path)
        for trial, loaded_trial in zip(record.trials, loaded.trials):
            for name in trial:
                original = trial[name]
                restored = loaded_trial[name]
                for a, b in zip(original.records, restored.records):
                    assert a.delivered_successes == b.delivered_successes
                    assert a.delivered_fidelities == b.delivered_fidelities
                    assert a.fidelity_served == b.fidelity_served
        # The saved record keeps the layer stats.
        assert loaded.stats("physical") == record.stats("physical")

    def test_delivery_never_exceeds_realization(self):
        record = scenario_with_physical().run()
        for trial in record.trials:
            for result in trial.values():
                for slot in result.records:
                    for realized, delivered in zip(
                        slot.realized_successes, slot.delivered_successes
                    ):
                        assert delivered <= realized


class TestConfigThreading:
    def test_with_physical_maps_short_names(self):
        scenario = api.Scenario.tiny().with_physical(swap_success=0.9, memory_time=2.0)
        physical = scenario.config.physical
        assert physical.swap_success == 0.9
        assert physical.memory_time == 2.0
        disabled = scenario.with_physical(False)
        assert disabled.config.physical is None  # off holds no knobs
        assert disabled.with_physical().config.physical == PhysicalModel()

    def test_with_physical_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="with_physical"):
            api.Scenario.tiny().with_physical(warp_factor=9)

    def test_physical_model_factory(self):
        config = ExperimentConfig.tiny()
        assert config.physical is None
        enabled = config.with_overrides(
            physical_enabled=True, physical_swap_success=0.9,
            physical_purify_rounds=1,
        )
        model = enabled.physical
        assert isinstance(model, PhysicalModel)
        assert model.swap_success == 0.9
        # The slot length is the config's alone; the model has no copy.
        assert not hasattr(model, "attempts_per_slot")
        engine = model.build_engine(config.attempts_per_slot)
        assert engine.dwell_time == model.dwell_time(config.attempts_per_slot)

    def test_physical_axis_group(self):
        from repro.experiments.config import resolve_path

        assert resolve_path("physical.swap_success") == "physical.swap_success"
        assert resolve_path("physical.physical_enabled") == "physical.enabled"
        with pytest.raises(ValueError):
            resolve_path("physical.total_budget")

    def test_scenario_json_roundtrip_keeps_physical_fields(self):
        scenario = scenario_with_physical()
        restored = api.Scenario.from_dict(scenario.to_dict())
        assert restored.config.physical.swap_success == 0.95
        assert restored.config.physical.purify_rounds == 2


class TestFidelityConstrainedMode:
    def constrained_config(self):
        return ExperimentConfig.tiny().with_overrides(
            physical_enabled=True,
            physical_fidelity_target=0.6,
            physical_fidelity_constrained=True,
            physical_purify_rounds=1,
        )

    def test_registry_wraps_policies(self):
        from repro.core.fidelity import FidelityAwarePolicy

        policy = api.make_policy("oscar", self.constrained_config())
        assert isinstance(policy, FidelityAwarePolicy)
        assert "F>=0.6" in policy.name

    def test_no_wrap_without_target_or_flag(self):
        from repro.core.fidelity import FidelityAwarePolicy

        config = ExperimentConfig.tiny().with_overrides(physical_enabled=True)
        assert not isinstance(api.make_policy("oscar", config), FidelityAwarePolicy)
        config = ExperimentConfig.tiny().with_overrides(
            physical_enabled=True, physical_fidelity_target=0.6
        )
        assert not isinstance(api.make_policy("oscar", config), FidelityAwarePolicy)

    def test_wrapper_uses_physical_edge_bound(self):
        config = self.constrained_config()
        policy = api.make_policy("mf", config)
        bound = config.physical.edge_fidelity_bound(config.attempts_per_slot)
        assert policy.fidelity_model.link_fidelity == bound

    def test_constrained_run_carries_wrapped_names(self):
        scenario = api.Scenario.from_config(
            self.constrained_config(), name="constrained"
        ).with_policies("mf")
        record = scenario.run()
        assert record.lineup == ["MF+F>=0.6"]
        # The announced lineup must match the result keys, so names taken
        # from it resolve (the probe runs against the scenario's config).
        assert list(scenario.lineup_names()) == record.lineup
        assert record.results_for(scenario.lineup_names()[0])
        # every fidelity-served delivery respects the target
        for trial in record.trials:
            for result in trial.values():
                for slot in result.records:
                    for ok, fidelity in zip(
                        slot.fidelity_served, slot.delivered_fidelities
                    ):
                        if ok:
                            assert fidelity >= 0.6


class TestMultiUserPhysical:
    def multiuser_scenario(self):
        return (
            api.Scenario.tiny()
            .with_user("lab", policy="oscar", total_budget=150.0)
            .with_user("startup", policy="mf", max_pairs=2)
            .with_physical(swap_success=0.9, purify_rounds=1)
        )

    def test_multiuser_runs_carry_delivery_and_stats(self):
        record = self.multiuser_scenario().run()
        stats = record.stats("physical")
        assert stats is not None and stats["requests"] > 0
        for trial in record.trials:
            for result in trial.values():
                assert "physical" in result.diagnostics
                assert any(slot.delivered_successes for slot in result.records)

    def test_multiuser_physical_is_reproducible(self):
        first = self.multiuser_scenario().run()
        second = self.multiuser_scenario().run()
        assert record_payloads(first) == record_payloads(second)
        assert first.stats("physical") == second.stats("physical")


class TestCliIntegration:
    def test_parameter_flags_imply_physical(self):
        from repro.cli import _config_from_args, build_parser

        arguments = build_parser().parse_args(
            ["compare", "--scale", "tiny", "--swap-p", "0.9",
             "--purify-rounds", "2", "--fidelity-target", "0.7",
             "--fidelity-constrained", "--decoherence-t2", "2.0"]
        )
        config = _config_from_args(arguments)
        assert config.physical is not None
        assert config.physical.swap_success == 0.9
        assert config.physical.purify_rounds == 2
        assert config.physical.fidelity_target == 0.7
        assert config.physical.fidelity_constrained is True
        assert config.physical.memory_time == 2.0

    def test_no_flags_leave_physical_disabled(self):
        from repro.cli import _config_from_args, build_parser

        arguments = build_parser().parse_args(["compare", "--scale", "tiny"])
        assert _config_from_args(arguments).physical is None

    def test_fig9_registered(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["figure", "fig9"]).name == "fig9"

    def test_compare_progress_prints_health_line(self, capsys):
        from repro.cli import main

        code = main(
            ["compare", "--scale", "tiny", "--trials", "1",
             "--policies", "mf", "--physical", "--progress"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[health]" in captured.err
        assert "physical" in captured.err
        assert "exhaustive" in captured.err

    def test_health_line_formats_both_fragments(self):
        from repro.cli import _render_health_line

        kernel = {
            "solves": 10, "binds": 5, "structure_compiles": 1,
            "cache_hits": 2, "memo_hits": 1, "pruned": 0,
            "dual_iterations": 40, "exhaustive_slots": 8, "gibbs_slots": 2,
        }
        physical = PhysicalStats(
            requests=6, attempts=5, delivered=4, fidelity_served=3,
            fidelity_sum=3.2, pairs_consumed=12,
        ).to_dict()
        line = _render_health_line({"kernel": kernel, "physical": physical})
        assert line.startswith("[health] kernel")
        assert "8 exhaustive / 2 gibbs slot(s)" in line
        assert "physical 4/5 delivered (mean F 0.800)" in line
        assert _render_health_line({}) is None
        assert _render_health_line({"kernel": kernel}).startswith("[health] kernel")
        assert _render_health_line({"physical": physical}).startswith(
            "[health] physical"
        )


def fig9_config(config, explicit=None):
    """``config`` with fig9's layer defaults, as the figure runs it."""
    return with_physical_defaults(config, figures.FIGURES["fig9"].layers, explicit)


class TestFig9:
    def test_fig9_runs_and_reports_both_panels(self):
        result = figures.run("fig9", ExperimentConfig.tiny(), values=[200.0, 300.0], trials=1)
        tables = result.format_tables()
        assert "Fig. 9(a) Mean delivered fidelity" in tables
        assert "Fig. 9(b) Fidelity-constrained service rate" in tables
        assert len(result.data["budgets"]) == 2
        for series in result.data["fidelity_throughput"].values():
            assert all(0.0 <= value <= 1.0 for value in series)
        payload = result.to_dict()
        assert payload["figure"] == "fig9"
        assert payload["physical_stats"] is not None

    def test_fig9_default_merging(self):
        # Library path: an explicitly enabled config is taken as configured.
        config = ExperimentConfig.tiny().with_overrides(
            physical_enabled=True, physical_swap_success=0.5
        )
        assert fig9_config(config) == config
        # A disabled config gets the figure's full defaults switched on.
        defaulted = fig9_config(ExperimentConfig.tiny())
        assert defaulted.physical is not None
        assert defaulted.physical.fidelity_constrained is True
        assert defaulted.physical.fidelity_target == 0.6
        # CLI path: pinned fields keep the user's value — even one that
        # coincides with a field default (--swap-p 1.0) — while the
        # remaining figure defaults still apply (a bare --physical must not
        # strip the fidelity target the figure is defined by).
        merged = fig9_config(
            ExperimentConfig.tiny().with_overrides(
                physical_enabled=True, physical_swap_success=1.0
            ),
            explicit={"physical_swap_success"},
        )
        assert merged.physical.swap_success == 1.0
        assert merged.physical.fidelity_target == 0.6
        assert merged.physical.purify_rounds == 2
        bare = fig9_config(
            ExperimentConfig.tiny().with_overrides(physical_enabled=True),
            explicit=set(),
        )
        assert bare.physical.fidelity_constrained is True

    def test_cli_fig9_explicit_flags_survive_the_merge(self):
        from repro.cli import _config_from_args, _config_paths, build_parser

        arguments = build_parser().parse_args(
            ["figure", "fig9", "--scale", "tiny", "--swap-p", "1.0"]
        )
        config = fig9_config(
            _config_from_args(arguments),
            explicit=_config_paths(arguments),
        )
        assert config.physical.swap_success == 1.0  # the user's 1.0, not 0.98
        assert config.physical.fidelity_target == 0.6
