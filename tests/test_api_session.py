"""Tests for the repro.api session layer: parallelism, events, records."""

import json

import pytest

from repro import api
from repro.simulation.results import SlotRecord


def tiny_scenario(trials=2, horizon=5):
    return (
        api.Scenario.tiny("session-test")
        .with_workload(horizon=horizon)
        .with_trials(trials)
        .with_seed(11)
        .with_policies("oscar", "ma")
    )


def trials_payload(record):
    """The equality-sensitive part of a RunRecord as canonical JSON."""
    payload = record.to_dict()
    return json.dumps({
        "trials": payload["trials"],
        "provider_trials": payload["provider_trials"],
    }, sort_keys=True)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        scenario = tiny_scenario(trials=3)
        serial = api.run_scenario(scenario, workers=1)
        parallel = api.run_scenario(scenario, workers=3)
        assert trials_payload(serial) == trials_payload(parallel)
        assert serial.meta["workers"] == 1
        assert parallel.meta["workers"] == 3

    def test_multiuser_parallel_matches_serial(self):
        scenario = (
            api.Scenario.tiny("shared")
            .with_workload(horizon=4)
            .with_trials(2)
            .with_user("lab", policy="oscar", total_budget=120.0)
            .with_user("edge", policy="naive")
        )
        serial = api.run_scenario(scenario, workers=1)
        parallel = api.run_scenario(scenario, workers=2)
        assert trials_payload(serial) == trials_payload(parallel)
        assert serial.kind == "multiuser"
        assert len(serial.provider_trials) == 2


class TestObservers:
    def test_event_order_serial(self):
        log = api.EventLog()
        scenario = tiny_scenario(trials=2, horizon=3)
        api.run_scenario(scenario, observers=[log])

        kinds = [type(event).__name__ for event in log.events]
        assert kinds[0] == "RunStarted"
        assert kinds[-1] == "RunCompleted"
        # Exactly one TrialStarted/TrialCompleted pair per trial, in order.
        trial_starts = [e.trial for e in log.of_type(api.TrialStarted)]
        trial_ends = [e.trial for e in log.of_type(api.TrialCompleted)]
        assert trial_starts == [0, 1]
        assert trial_ends == [0, 1]
        # horizon slots per policy per trial, none replayed.
        slots = log.of_type(api.SlotCompleted)
        assert len(slots) == 2 * 2 * 3
        assert all(not event.replayed for event in slots)
        assert all(isinstance(event.record, SlotRecord) for event in slots)
        # Slot events of trial 0 all precede trial 1's.
        boundary = kinds.index("TrialCompleted")
        assert all(event.trial == 0 for event in slots[: boundary - 2])

    def test_event_order_parallel_replay(self):
        log = api.EventLog()
        scenario = tiny_scenario(trials=2, horizon=3)
        api.run_scenario(scenario, workers=2, observers=[log])

        slots = log.of_type(api.SlotCompleted)
        assert len(slots) == 2 * 2 * 3
        assert all(event.replayed for event in slots)
        trials_seen = [event.trial for event in slots]
        assert trials_seen == sorted(trials_seen)  # replayed in trial order

    def test_trial_completed_carries_summaries(self):
        log = api.EventLog()
        api.run_scenario(tiny_scenario(trials=1, horizon=3), observers=[log])
        (completed,) = log.of_type(api.TrialCompleted)
        assert set(completed.results) == {"OSCAR", "MA"}
        assert "average_success_rate" in completed.results["OSCAR"]

    def test_early_stop(self):
        class StopAfterFirstTrial(api.RunObserver):
            def on_trial_completed(self, event):
                raise api.EarlyStop()

        record = api.run_scenario(
            tiny_scenario(trials=3), observers=[StopAfterFirstTrial()]
        )
        assert record.meta["stopped_early"] is True
        assert record.num_trials == 1

    def test_live_metrics_observer(self):
        metrics = api.LiveMetricsObserver()
        api.run_scenario(tiny_scenario(trials=1, horizon=4), observers=[metrics])
        snapshot = metrics.snapshot()
        assert set(snapshot) == {"OSCAR", "MA"}
        assert snapshot["OSCAR"]["slots"] == 4
        assert 0.0 <= snapshot["OSCAR"]["running_success_rate"] <= 1.0

    def test_callback_observer(self):
        seen = []
        api.run_scenario(
            tiny_scenario(trials=1, horizon=2),
            observers=[api.CallbackObserver(seen.append)],
        )
        assert any(isinstance(event, api.RunStarted) for event in seen)

    def test_progress_observer_writes_stream(self):
        import io

        stream = io.StringIO()
        api.run_scenario(
            tiny_scenario(trials=1, horizon=2),
            observers=[api.ProgressObserver(stream=stream)],
        )
        output = stream.getvalue()
        assert "session-test" in output
        assert "trial 0 done" in output


#: One tiny scenario per driver: slotted, event, multi-user and serving.
DRIVERS = {
    "slotted": lambda: api.Scenario.tiny().with_policies("oscar", "mf"),
    "event": lambda: api.Scenario.tiny().with_policies("oscar", "mf").with_backend(),
    "multiuser": lambda: api.Scenario.tiny().with_user("a").with_user("b", "mf"),
    "serving": lambda: api.Scenario.tiny().with_serving(arrival_rate=1.0),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_slot_callback_false_stops_every_driver(driver):
    scenario = DRIVERS[driver]()
    calls = []

    def stop(name, record):
        calls.append(name)
        return False

    results, provider_records = api.execute_trial(scenario, 0, on_slot=stop)
    assert scenario.config.horizon > 1
    for result in results.values():
        assert [record.t for record in result.records] == [0]
    if driver == "multiuser":
        assert calls == ["provider"]
        assert [record.t for record in provider_records] == [0]
    else:
        assert calls == list(results)


class TestRunRecord:
    def test_round_trip_through_json_file(self, tmp_path):
        record = api.run_scenario(tiny_scenario(trials=2, horizon=3))
        path = record.save(tmp_path / "record.json")
        loaded = api.RunRecord.load(path)
        assert trials_payload(loaded) == trials_payload(record)
        assert loaded.kind == record.kind
        assert loaded.lineup == record.lineup

    def test_summary(self):
        record = api.run_scenario(tiny_scenario(trials=2, horizon=3))
        summary = record.summary()
        assert list(summary) == ["OSCAR", "MA"]
        assert summary["OSCAR"]["average_success_rate"].count == 2
        assert "OSCAR" in record.format_summary()

    def test_compare_helper(self):
        record = api.compare(
            tiny_scenario().config, policies=("oscar",), trials=1, seed=3
        )
        assert record.lineup == ["OSCAR"]
        assert record.num_trials == 1
        assert record.scenario_config().base_seed == 3
