"""Tests for repro.serving.scheduler: serving runs end to end.

Every session draws from its own stream, so the recorded values depend only
on the sessions admitted.  The merge window changes only how stale
admission's view is: under ``always``, which never reads that view, it
changes nothing, and under a binding backlog threshold it changes which
sessions get in.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.analysis.stats import merge_stat_mappings
from repro.api.records import trial_to_dict
from repro.serving.scheduler import (
    ServingModel,
    jain_fairness,
    mean_sojourn_slots,
    serving_requests_per_second,
)


def serving_scenario(**overrides):
    fields = dict(
        arrival_rate=1.5,
        session_rate=2.5,
        session_lifetime=15.0,
        renew_probability=0.3,
    )
    fields.update(overrides)
    return (
        api.Scenario.tiny("serving-test")
        .with_serving(**fields)
        .with_trials(1)
        .with_seed(23)
    )


def run_payload(record):
    """The equality-sensitive serving result as canonical JSON."""
    return json.dumps([trial_to_dict(trial) for trial in record.trials], sort_keys=True)


class TestShardIdentity:
    """What the merge window may and may not change (no shards remain)."""

    def test_merge_period_does_not_change_records(self):
        every_slot = api.run_scenario(serving_scenario(admission="always", merge_every=1))
        windowed = api.run_scenario(serving_scenario(admission="always", merge_every=5))
        assert run_payload(every_slot) == run_payload(windowed)

    def test_merge_period_changes_admission_under_binding_threshold(self):
        def rejected(merge_every):
            scenario = (
                api.Scenario.small("stale-admission")
                .with_workload(horizon=300)
                .with_serving(
                    arrival_rate=2.0,
                    session_rate=4.0,
                    admission="backlog-threshold",
                    admission_threshold=50,
                    merge_every=merge_every,
                )
                .with_trials(1)
            )
            return api.run_scenario(scenario).stats("serving")["sessions_rejected"]

        assert rejected(1) != rejected(5)


class TestServingRun:
    def test_kind_and_lineup(self):
        record = api.run_scenario(serving_scenario())
        assert record.kind == "serving"
        assert record.lineup == ["serving"]

    def test_accounting_invariant(self):
        record = api.run_scenario(serving_scenario())
        stats = record.stats("serving")
        assert stats["requests_arrived"] == (
            stats["requests_served"]
            + stats["requests_dropped"]
            + stats["requests_backlog"]
        )
        assert stats["sessions_arrived"] == (
            stats["sessions_admitted"] + stats["sessions_rejected"]
        )

    def test_records_mirror_stats(self):
        record = api.run_scenario(serving_scenario())
        stats = record.stats("serving")
        result = record.trials[0]["serving"]
        assert sum(r.num_requests for r in result.records) == stats["requests_arrived"]
        assert sum(r.num_served for r in result.records) == stats["requests_served"]
        assert sum(r.cost for r in result.records) == stats["cost_spent"]
        assert len(result.records) == stats["slots"]

    def test_renewals_occur_and_extend_sessions(self):
        record = api.run_scenario(
            serving_scenario(session_lifetime=3.0, renew_probability=0.9)
        )
        stats = record.stats("serving")
        assert stats["sessions_renewed"] > 0

    def test_admission_policies_change_outcomes(self):
        open_door = api.run_scenario(serving_scenario(admission="always"))
        throttled = api.run_scenario(
            serving_scenario(admission="token-bucket", token_rate=0.2, token_burst=1.0)
        )
        assert open_door.stats("serving")["sessions_rejected"] == 0
        assert throttled.stats("serving")["sessions_rejected"] > 0

    def test_backlog_threshold_zero_rejects_under_pressure(self):
        record = api.run_scenario(
            serving_scenario(
                admission="backlog-threshold",
                admission_threshold=0.0,
                arrival_rate=3.0,
                session_rate=4.0,
            )
        )
        stats = record.stats("serving")
        assert stats["sessions_rejected"] > 0

    def test_trace_arrivals_supported(self):
        record = api.run_scenario(
            serving_scenario(arrival_kind="trace", arrival_trace=[2, 0, 1])
        )
        stats = record.stats("serving")
        assert stats["sessions_arrived"] > 0

    def test_slot_records_carry_clock_stamps(self):
        record = api.run_scenario(serving_scenario())
        result = record.trials[0]["serving"]
        for slot in result.records:
            assert slot.slot_start_s is not None
            assert slot.slot_end_s is not None
        assert result.wall_time_s() > 0.0


class TestWallTimeAndThroughput:
    def test_run_record_wall_time_and_rps(self):
        record = api.run_scenario(serving_scenario())
        assert record.wall_time_s() > 0.0
        stats = record.stats("serving")
        assert record.requests_per_second() == pytest.approx(
            stats["requests_arrived"] / record.wall_time_s()
        )

    def test_wall_time_survives_persistence(self, tmp_path):
        record = api.run_scenario(serving_scenario())
        path = record.save(tmp_path / "serving.json")
        loaded = api.RunRecord.load(path)
        assert loaded.wall_time_s() == pytest.approx(record.wall_time_s())
        assert loaded.requests_per_second() == pytest.approx(
            record.requests_per_second()
        )

    def test_legacy_payload_without_stamps_is_none(self, tmp_path):
        record = api.run_scenario(serving_scenario())
        payload = record.to_dict()
        for trial in payload["trials"]:
            for result in trial.values():
                for slot in result["records"]:
                    slot.pop("slot_start_s", None)
                    slot.pop("slot_end_s", None)
        legacy = api.RunRecord.from_dict(payload)
        assert legacy.wall_time_s() is None
        assert legacy.requests_per_second() is None

    def test_diagnostics_survive_save_load(self, tmp_path):
        record = api.run_scenario(serving_scenario())
        assert record.stats("serving") is not None
        loaded = api.RunRecord.load(record.save(tmp_path / "serving.json"))
        assert loaded.stats("serving") == record.stats("serving")


class TestServingModel:
    def test_defaults_validate(self):
        model = ServingModel()
        assert model.merge_every == 1

    def test_bad_merge_period_rejected(self):
        with pytest.raises(ValueError):
            ServingModel(merge_every=0)

    def test_unknown_admission_rejected_eagerly(self):
        with pytest.raises(KeyError):
            ServingModel(admission="front-door")

    def test_admission_aliases_accepted(self):
        policy = ServingModel(admission="lyapunov").build_admission()
        assert policy.name == "backlog-threshold"


class TestStatsHelpers:
    def test_jain_none_without_stats(self):
        assert jain_fairness(None) is None
        assert jain_fairness({}) is None

    def test_jain_trivially_fair_when_nothing_served(self):
        assert jain_fairness({"fairness_users": 0, "slots": 1}) == 1.0

    def test_jain_perfect_for_equal_shares(self):
        stats = {
            "requests_served": 20,
            "fairness_users": 4,
            "fairness_served_sq": 4 * 25,
        }
        assert jain_fairness(stats) == pytest.approx(1.0)

    def test_rps_and_sojourn_none_without_stats(self):
        assert serving_requests_per_second(None) is None
        assert mean_sojourn_slots(None) is None

    def test_merge_is_summable(self):
        a = {"requests_served": 3, "slots": 2}
        b = {"requests_served": 5, "slots": 4}
        merged = merge_stat_mappings([a, b])
        assert merged["requests_served"] == 8
        assert merged["slots"] == 6

    def test_merge_none_when_empty(self):
        assert merge_stat_mappings([None, None]) is None


class TestSavedRecords:
    def test_record_saved_with_shard_layout_reruns_identically(self):
        # Saved while the scheduler still took shard-layout knobs: its
        # config carries serving_shards=4 and serving_shard_workers=2.
        path = Path(__file__).parent / "data" / "record_with_shard_layout.json"
        saved = api.RunRecord.load(path)
        assert saved.scenario["config"]["serving_shards"] == 4
        rerun = api.Scenario.from_dict(saved.scenario).run()
        assert run_payload(rerun) == run_payload(saved)
