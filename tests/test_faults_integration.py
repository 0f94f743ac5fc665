"""End-to-end fault-injection tests: byte-identity, recovery, degradation.

The fault subsystem's standing contracts, exercised through the public
facade:

* faults disabled ⇒ results and diagnostics are exactly the historical
  ones (no new keys, no extra RNG draws);
* same seed ⇒ same fault schedule ⇒ byte-identical records across
  serial/parallel execution and across worker deaths;
* the slotted and event backends agree on the fault accounting;
* the degradation ladder and checkpoint/resume paths are deterministic.
"""

import json
import os

import pytest

from repro import api
from repro.experiments.config import ExperimentConfig


def fault_scenario(trials=2, aware=True, **overrides):
    """A tiny fault-injected OSCAR scenario (deterministic)."""
    scenario = api.Scenario.tiny().with_policies("oscar").with_trials(trials)
    parameters = dict(edge_mtbf=20.0, node_mtbf=60.0, mttr=4.0, aware=aware)
    parameters.update(overrides)
    return scenario.with_faults(**parameters)


def record_payload(record):
    """The result payload only (meta carries worker counts and timings)."""
    payload = record.to_dict()
    payload.pop("meta", None)
    return json.dumps(payload, sort_keys=True)


class TestFaultFreeIdentity:
    def test_disabled_faults_leave_diagnostics_untouched(self):
        record = api.Scenario.tiny().with_policies("oscar").run()
        assert record.stats("faults") is None
        for trial in record.trials:
            for result in trial.values():
                assert "faults" not in result.diagnostics

    def test_with_faults_false_matches_plain_run(self):
        plain = api.Scenario.tiny().with_policies("oscar").run()
        disabled = (
            api.Scenario.tiny()
            .with_policies("oscar")
            .with_faults(enabled=False)
            .run()
        )
        assert record_payload(plain) == record_payload(disabled)


class TestFaultInjectedRuns:
    def test_fault_stats_populated(self):
        record = fault_scenario().run()
        stats = record.stats("faults")
        assert stats is not None
        assert stats["slots"] > 0
        assert stats["element_slots"] > 0
        assert stats["edge_failures"] > 0
        assert api.fault_availability(stats) < 1.0

    def test_serial_parallel_byte_identity(self):
        scenario = fault_scenario(trials=3)
        serial = api.run_scenario(scenario, workers=1)
        parallel = api.run_scenario(scenario, workers=2)
        assert record_payload(serial) == record_payload(parallel)

    def test_backends_agree_on_fault_accounting(self):
        def run(backend):
            config = ExperimentConfig.tiny().with_overrides(
                backend=backend,
                trials=2,
                fault_enabled=True,
                fault_edge_mtbf=20.0,
                fault_mttr=4.0,
            )
            scenario = api.Scenario.from_config(config).with_policies("oscar")
            return scenario.run().stats("faults")

        slotted = run("slotted")
        event = run("event")
        assert slotted == event

    def test_blind_mode_interrupts_served_requests(self):
        aware = fault_scenario(trials=2, aware=True).run().stats("faults")
        blind = fault_scenario(trials=2, aware=False).run().stats("faults")
        # Identical schedules (same seed), opposite degradation modes.
        for key in ("slots", "element_slots", "down_element_slots", "edge_failures"):
            assert aware[key] == blind[key]
        assert aware["requests_interrupted"] == 0
        assert blind["requests_unservable"] == 0

    @pytest.mark.parametrize("aware", [True, False], ids=["aware", "blind"])
    def test_multiuser_lineup_runs_with_faults(self, aware):
        single = fault_scenario(aware=aware)
        tenants = single.with_user("a").with_user("b", "myopic-fixed")
        stats = tenants.with_guard("strict").run().stats("faults")
        # One schedule per trial, observed once per slot for all tenants:
        # the schedule counters equal the single-user run's.
        expected = single.run().stats("faults")
        for key in ("slots", "element_slots", "down_element_slots", "edge_failures"):
            assert stats[key] == expected[key]
        lost = stats["requests_unservable"] + stats["requests_interrupted"]
        assert lost > 0
        assert stats["requests_interrupted" if aware else "requests_unservable"] == 0


# --------------------------------------------------------------------------- #
# Worker-death recovery (module-scope wrappers so pool workers can pickle
# them; the marker file makes only the first attempt die).
# --------------------------------------------------------------------------- #
_KILL_MARKER = None


def _trial_killing_worker(scenario, trial):
    from repro.api import session

    if not os.path.exists(_KILL_MARKER):
        open(_KILL_MARKER, "w").close()
        os._exit(1)
    return session.execute_trial(scenario, trial, on_slot=None)


class TestWorkerDeathRecovery:
    def test_session_survives_trial_worker_death(self, tmp_path, monkeypatch):
        global _KILL_MARKER
        _KILL_MARKER = str(tmp_path / "trial-killed")
        scenario = fault_scenario(trials=3)
        baseline = api.run_scenario(scenario, workers=2)

        from repro.api import session as session_module

        monkeypatch.setattr(
            session_module, "_execute_trial_for_pool", _trial_killing_worker
        )
        survived = api.run_scenario(scenario, workers=2)
        assert survived.meta["worker_recoveries"] >= 1
        assert record_payload(survived) == record_payload(baseline)


class TestCheckpointResume:
    def test_interrupted_session_resumes_byte_identical(self, tmp_path):
        scenario = fault_scenario(trials=4)
        clean = api.run_scenario(scenario, workers=1)

        checkpoint = api.RunCheckpoint(tmp_path / "ckpt.json")
        calls = {"n": 0}

        def stop_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        interrupted = api.run_scenario(
            scenario, workers=1, checkpoint=checkpoint, stop_flag=stop_after_two
        )
        assert interrupted.meta["stopped_early"]
        assert interrupted.meta["completed_trials"] == 2
        assert checkpoint.path.exists()

        resumed = api.run_scenario(scenario, workers=1, checkpoint=checkpoint)
        assert resumed.meta["resumed_trials"] == 2
        assert record_payload(resumed) == record_payload(clean)
        # The checkpointed trials keep their layer stats.
        for layer in ("kernel", "faults"):
            assert resumed.stats(layer) == clean.stats(layer), layer
        # A complete run clears its checkpoint.
        assert not checkpoint.path.exists()

    def test_checkpoint_without_diagnostics_still_resumes(self, tmp_path):
        scenario = fault_scenario(trials=2)
        checkpoint = api.RunCheckpoint(tmp_path / "ckpt.json")
        calls = {"n": 0}

        def stop_after_one():
            calls["n"] += 1
            return calls["n"] > 1

        api.run_scenario(scenario, checkpoint=checkpoint, stop_flag=stop_after_one)
        # Strip the saved stats, as in a file written before they were kept.
        payload = json.loads(checkpoint.path.read_text())
        assert len(payload["trials"]) == 1
        payload["trials"][0].pop("diagnostics")
        checkpoint.path.write_text(json.dumps(payload))
        resumed = api.run_scenario(scenario, checkpoint=checkpoint)
        assert resumed.meta["resumed_trials"] == 1
        clean = api.run_scenario(scenario)
        assert json.dumps(resumed.to_dict()["trials"], sort_keys=True) == json.dumps(
            clean.to_dict()["trials"], sort_keys=True
        )
        assert resumed.trials[0]["OSCAR"].diagnostics == {}

    def test_checkpoint_for_other_scenario_is_ignored(self, tmp_path):
        checkpoint = api.RunCheckpoint(tmp_path / "ckpt.json")
        first = fault_scenario(trials=2)
        api.run_scenario(
            first, checkpoint=checkpoint, stop_flag=lambda: True
        )
        other = fault_scenario(trials=2, edge_mtbf=33.0)
        record = api.run_scenario(other, checkpoint=checkpoint)
        assert record.meta["resumed_trials"] == 0
        assert record.meta["completed_trials"] == 2


class TestStudyFaults:
    def test_faults_axis_group_resolves(self):
        study = (
            api.Study("faults-axis")
            .base(fault_scenario(trials=1))
            .over("faults.edge_mtbf", [15.0, 40.0])
        )
        result = study.run()
        stats = result.stats("faults")
        assert stats is not None and stats["slots"] > 0
        assert len(result.points) == 2

    def test_truncated_store_entry_recovers(self, tmp_path):
        store = str(tmp_path / "store")
        study = api.Study("store-robust").base(fault_scenario(trials=1)).over(
            "faults.edge_mtbf", [15.0]
        )
        first = study.run(store=store)
        entries = list((tmp_path / "store").glob("*.json"))
        assert len(entries) == 1
        pristine = entries[0].read_text()
        entries[0].write_text(pristine[: len(pristine) // 2])

        rebuilt = (
            api.Study("store-robust").base(fault_scenario(trials=1)).over(
                "faults.edge_mtbf", [15.0]
            )
        )
        with pytest.warns(RuntimeWarning, match="corrupt"):
            second = rebuilt.run(store=store)
        assert second.meta["points_cached"] == 0
        assert json.dumps(first.summaries(), sort_keys=True, default=str) == json.dumps(
            second.summaries(), sort_keys=True, default=str
        )
        # The recomputed point was rewritten cleanly.
        assert json.loads(entries[0].read_text())

    def test_stop_flag_winds_down_and_store_resumes(self, tmp_path):
        store = str(tmp_path / "store")

        def make_study():
            return (
                api.Study("stoppable")
                .base(fault_scenario(trials=1))
                .over("faults.edge_mtbf", [15.0, 40.0])
            )

        calls = {"n": 0}

        def stop_after_one():
            calls["n"] += 1
            return calls["n"] > 1

        with pytest.raises(KeyboardInterrupt):
            make_study().run(store=store, stop_flag=stop_after_one)
        resumed = make_study().run(store=store)
        assert resumed.meta["points_cached"] == 1
        assert resumed.meta["points"] == 2


class TestDegradationLadder:
    def run_stats(self, deadline):
        config = ExperimentConfig.tiny().with_overrides(
            solve_deadline=deadline, trials=1
        )
        return api.compare(config, policies=("oscar",), name="ladder").stats("kernel")

    def test_no_deadline_keeps_historical_payload(self):
        stats = self.run_stats(0)
        assert "greedy_slots" not in stats
        assert "deadline_greedy_fallbacks" not in stats

    def test_tight_deadline_degrades_to_greedy(self):
        stats = self.run_stats(1)
        assert stats["greedy_slots"] > 0
        assert stats["deadline_greedy_fallbacks"] == stats["greedy_slots"]
        assert stats["exhaustive_slots"] == 0

    def test_medium_deadline_falls_back_to_gibbs(self):
        # gibbs_iterations=10 at tiny scale: a budget of 12 admits the
        # sampler (11 evaluations) but not the larger exhaustive spaces.
        stats = self.run_stats(12)
        assert stats["deadline_gibbs_fallbacks"] > 0
        assert stats["deadline_greedy_fallbacks"] == 0

    def test_deadline_is_deterministic(self):
        assert self.run_stats(12) == self.run_stats(12)


class TestAvailabilityGate:
    def test_sheds_load_below_floor(self):
        from repro.serving.admission import AdmissionState, AvailabilityGate
        from repro.serving.arrivals import SessionSpec

        gate = AvailabilityGate(min_availability=0.9, threshold=100.0)
        spec = SessionSpec(
            session_id=0, joined_slot=0, source=0, destination=1,
            request_rate=1.0, lifetime=5, renew_probability=0.0, seed=1,
        )

        def state(availability, backlog=0.0):
            return AdmissionState(
                t=0, backlog=backlog, pending_requests=0, active_sessions=0,
                availability=availability,
            )

        assert gate.admit(spec, state(1.0))
        assert gate.admit(spec, state(0.9))
        assert not gate.admit(spec, state(0.89))
        assert not gate.admit(spec, state(1.0, backlog=101.0))

    def test_registered_and_validated(self):
        from repro.serving.admission import AvailabilityGate, make_admission_policy

        policy = make_admission_policy("availability", min_availability=0.5)
        assert isinstance(policy, AvailabilityGate)
        with pytest.raises(ValueError):
            AvailabilityGate(min_availability=1.5)
