"""Tests for repro.api.records: the one result type and its saved layout."""

import json
from pathlib import Path

import pytest

from conftest import trial_to_v2_dict
from repro import api
from repro.api.records import result_from_dict, result_to_dict
from repro.experiments.config import ExperimentConfig
from repro.simulation.results import SimulationResult, SlotColumns, SlotRecord


@pytest.fixture(scope="module")
def tiny_record():
    """One shared tiny comparison run (2 trials) reused by several tests."""
    config = ExperimentConfig.tiny().with_overrides(horizon=6, trials=2)
    return api.compare(config, seed=11)


def sample_result():
    records = (
        SlotRecord(
            t=0,
            num_requests=2,
            num_served=2,
            cost=5,
            utility=-0.4,
            success_probabilities=(0.9, 0.7),
            realized_successes=(True, False),
            queue_length=3.0,
        ),
        SlotRecord(
            t=1,
            num_requests=1,
            num_served=0,
            cost=0,
            utility=0.0,
            success_probabilities=(),
            realized_successes=(False,),
            queue_length=None,
        ),
    )
    return SimulationResult(
        policy_name="OSCAR", horizon=2, total_budget=20.0, columns=SlotColumns.from_records(records)
    )


class TestCompareRecord:
    def test_trials_and_lineup(self, tiny_record):
        assert tiny_record.num_trials == 2
        assert tiny_record.lineup == ["OSCAR", "MA", "MF"]

    def test_policies_see_identical_workload_within_a_trial(self, tiny_record):
        for trial in tiny_record.trials:
            request_series = [
                [record.num_requests for record in result.records] for result in trial.values()
            ]
            assert request_series[0] == request_series[1] == request_series[2]

    def test_trials_use_different_workloads(self, tiny_record):
        first = [record.num_requests for record in tiny_record.trials[0]["OSCAR"].records]
        second = [record.num_requests for record in tiny_record.trials[1]["OSCAR"].records]
        assert first != second

    def test_results_for(self, tiny_record):
        results = tiny_record.results_for("OSCAR")
        assert len(results) == 2
        assert all(result.policy_name == "OSCAR" for result in results)

    def test_reproducible_given_seed(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4, trials=1)
        a = api.compare(config, seed=21)
        b = api.compare(config, seed=21)
        assert a.trials[0]["OSCAR"].per_slot_costs() == b.trials[0]["OSCAR"].per_slot_costs()

    def test_summary_structure(self, tiny_record):
        summary = tiny_record.summary()
        assert set(summary.keys()) == {"OSCAR", "MA", "MF"}
        for metrics in summary.values():
            assert metrics["average_success_rate"].count == 2
            assert 0.0 <= metrics["average_success_rate"].mean <= 1.0


class TestResultCodec:
    def test_dict_round_trip_preserves_metrics(self):
        original = sample_result()
        rebuilt = result_from_dict(result_to_dict(original))
        assert rebuilt.policy_name == original.policy_name
        assert rebuilt.total_cost == original.total_cost
        assert rebuilt.average_success_rate() == pytest.approx(original.average_success_rate())
        assert rebuilt.per_slot_costs() == original.per_slot_costs()
        assert rebuilt.queue_lengths() == original.queue_lengths()

    def test_json_is_plain_data(self):
        payload = json.loads(json.dumps(result_to_dict(sample_result())))
        assert payload["policy_name"] == "OSCAR"
        assert payload["columns"]["cost"] == {
            "dtype": "<i8", "length": 2, "data": payload["columns"]["cost"]["data"]
        }


def trials_json(record):
    """A record's trials in the schema-2 layout the fixtures were saved in."""
    return json.dumps([trial_to_v2_dict(trial) for trial in record.trials], sort_keys=True)


class TestSavedPhysicalConfigs:
    """Physical configs saved while the model still had an ``engine`` field
    carry it in their nested ``physical`` mapping; they load and re-run."""

    DATA = Path(__file__).parent / "data"

    def test_record_reruns_identically(self):
        saved = api.RunRecord.load(self.DATA / "record_nested_physical.json")
        assert saved.scenario["config"]["physical"]["engine"] == "vectorized"
        rerun = api.Scenario.from_dict(saved.scenario).run()
        assert trials_json(rerun) == trials_json(saved)

    def test_study_reruns_identically(self):
        saved = api.StudyResult.load(self.DATA / "study_nested_physical.json")
        (record,) = saved.records
        assert record.scenario["config"]["physical"]["engine"] == "vectorized"
        rerun = api.Scenario.from_dict(record.scenario).run()
        assert trials_json(rerun) == trials_json(record)
