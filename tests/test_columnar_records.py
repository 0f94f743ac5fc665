"""Columnar run records: the slots a run keeps, saves, streams and reloads.

A result holds its slots as columns (``SimulationResult.columns``) and
builds each ``SlotRecord`` when ``result.records`` is read.  These tests
hold that view to the slots the simulators produced:

* a saved run (schema 3) reloads every record field for field, the
  realised fidelities included, on every driver;
* the records observers receive, live or replayed from worker processes,
  equal the stored ones;
* schema-1 and schema-2 files load with the summaries they had, and a
  checkpoint of the previous layout is run again instead of resumed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import trial_to_v2_dict
from repro import api
from repro.api.records import (
    SCHEMA_VERSION,
    decode_column,
    encode_column,
    result_from_dict,
    result_to_dict,
)
from repro.faults.checkpoint import checkpoint_key
from repro.simulation.results import SimulationResult, SlotColumns, SlotRecord

DATA = Path(__file__).parent / "data"

#: One tiny scenario per driver, each with every per-request field it fills.
DRIVERS = {
    "slotted": lambda: api.Scenario.tiny().with_policies("oscar", "mf").with_physical(),
    "event": lambda: api.Scenario.tiny()
    .with_policies("oscar", "mf")
    .with_backend("event", latency=0.004)
    .with_physical(purify_rounds=1),
    "multiuser": lambda: api.Scenario.tiny()
    .with_user("a")
    .with_user("b", "mf")
    .with_physical(),
    "serving": lambda: api.Scenario.tiny().with_serving(arrival_rate=1.0),
}

_SCALARS = (int, float, bool, type(None))


def assert_builtin(record: SlotRecord) -> None:
    """Every field is a builtin scalar, or a tuple of them."""
    for name, value in vars(record).items():
        if isinstance(value, tuple):
            assert all(type(item) in (float, bool) for item in value), name
        else:
            assert type(value) in _SCALARS, name


def assert_same_slots(live, stored) -> None:
    """The two sequences of slot records agree field for field."""
    live, stored = list(live), list(stored)
    assert len(live) == len(stored)
    for mine, theirs in zip(live, stored):
        assert mine == theirs
        assert_builtin(theirs)


def reloaded(record: api.RunRecord) -> api.RunRecord:
    return api.RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_saved_run_reloads_every_record(driver):
    record = DRIVERS[driver]().run()
    loaded = reloaded(record)
    assert loaded.to_dict()["schema_version"] == SCHEMA_VERSION == 3
    for trial, loaded_trial in zip(record.trials, loaded.trials):
        assert list(trial) == list(loaded_trial)
        for name, result in trial.items():
            assert loaded_trial[name].columns == result.columns
            assert_same_slots(result.records, loaded_trial[name].records)
    assert loaded.provider_trials == record.provider_trials
    assert loaded.format_summary() == record.format_summary()
    if driver != "serving":
        # Schema 2 dropped the realised fidelities; schema 3 keeps them.
        fidelities = [
            value
            for trial in loaded.trials
            for result in trial.values()
            for slot in result.records
            for value in slot.realized_fidelities
        ]
        assert fidelities and any(value > 0 for value in fidelities)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_a_run_stopped_early_saves_its_slots(driver):
    streamed = {}

    def stop_after_three(name, record):
        streamed.setdefault(name, []).append(record)
        return len(streamed[name]) < 3

    results, provider = api.execute_trial(DRIVERS[driver](), 0, on_slot=stop_after_three)
    for name, result in results.items():
        assert len(result.records) == 3
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert_same_slots(result.records, rebuilt.records)
        if driver != "multiuser":
            assert_same_slots(streamed[name], result.records)
    if driver == "multiuser":
        assert streamed == {"provider": list(provider)}


#: Slots no driver of a tiny run produces: a slot without requests, a served
#: request of success probability 0 (utility -inf), a baseline's missing
#: queue next to a NaN one, and stamps on only some slots.
EDGE_SLOTS = (
    SlotRecord(
        t=0, num_requests=0, num_served=0, cost=0, utility=0.0,
        success_probabilities=(), queue_length=None,
    ),
    SlotRecord(
        t=1, num_requests=3, num_served=1, cost=4, utility=float("-inf"),
        success_probabilities=(0.0,), realized_successes=(False, False, False),
        realized_fidelities=(0.0, 0.0, 0.0), queue_length=float("nan"),
        slot_start_s=0.5, slot_end_s=1.0,
    ),
    SlotRecord(
        t=2, num_requests=1, num_served=2, cost=6, utility=-0.25,
        success_probabilities=(0.5, 0.75), realized_successes=(True, True),
        realized_fidelities=(0.9, 0.8), queue_length=2.5,
        delivered_successes=(True, False), delivered_fidelities=(0.85, 0.0),
        fidelity_served=(True, False), slot_start_s=1.0, slot_end_s=1.5,
    ),
)


def test_edge_slots_round_trip():
    result = SimulationResult("MF", 3, 12.0, SlotColumns.from_records(EDGE_SLOTS))
    rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    for mine, theirs in zip(EDGE_SLOTS, rebuilt.records):
        assert_builtin(theirs)
        fields = {**vars(theirs), "queue_length": mine.queue_length}
        assert fields == vars(mine)
    queues = rebuilt.queue_lengths()
    assert queues[0] is None and math.isnan(queues[1]) and queues[2] == 2.5
    assert rebuilt.per_slot_utilities()[1] == float("-inf")
    assert rebuilt.summary() == result.summary()
    assert rebuilt.wall_time_s() == result.wall_time_s() == 1.0
    assert rebuilt.running_average_success_rate() == result.running_average_success_rate()


def test_records_view_builds_each_slot_when_read():
    result = SimulationResult("MF", 3, 12.0, SlotColumns.from_records(EDGE_SLOTS))
    records = result.records
    assert len(records) == 3
    assert records[-1] == EDGE_SLOTS[-1]
    assert records[0:3:2] == (EDGE_SLOTS[0], EDGE_SLOTS[2])
    assert records[0] is not records[0]
    with pytest.raises(IndexError):
        records[3]
    # Two views of the same slots compare equal, as the record tuples did.
    assert records == result.records
    shorter = SimulationResult("MF", 2, 12.0, SlotColumns.from_records(EDGE_SLOTS[:2]))
    assert records != shorter.records


def test_columns_hold_the_slot_order():
    result = SimulationResult("MF", 3, 12.0, SlotColumns.from_records(EDGE_SLOTS))
    columns = result.columns
    assert columns.t.tolist() == [0, 1, 2]
    assert columns.success_probabilities.values.tolist() == [0.0, 0.5, 0.75]
    assert columns.success_probabilities.lengths.tolist() == [0, 1, 2]
    assert columns.queue_length.lengths.tolist() == [0, 1, 1]
    assert columns.slot_start_s.values.tolist() == [0.5, 1.0]


@pytest.mark.parametrize(
    "values", [[1.5, float("nan"), float("-inf")], [True, False], [0, 2**40]]
)
def test_column_codec_round_trip(values):
    array = np.array(values)
    payload = json.loads(json.dumps(encode_column(array)))
    assert payload["length"] == len(values)
    decoded = decode_column(payload, array.dtype)
    assert decoded.dtype == array.dtype
    assert decoded.tobytes() == array.tobytes()


def test_column_header_length_is_checked():
    payload = encode_column(np.arange(3))
    payload["length"] = 4
    with pytest.raises(ValueError, match="header says 4"):
        decode_column(payload, np.int64)


# --------------------------------------------------------------------- #
# Observers see the stored records
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_observed_slots_equal_the_stored_records(driver, workers):
    log = api.EventLog()
    record = api.run_scenario(DRIVERS[driver]().with_trials(2), workers=workers, observers=[log])
    events = log.of_type(api.SlotCompleted)
    assert events and all(event.replayed == (workers > 1) for event in events)
    for index, trial in enumerate(record.trials):
        if driver == "multiuser":
            streamed = [e.record for e in events if e.trial == index]
            assert streamed == list(record.provider_trials[index])
            continue
        for name, result in trial.items():
            streamed = [e.record for e in events if e.trial == index and e.policy == name]
            assert_same_slots(streamed, result.records)


# --------------------------------------------------------------------- #
# Old files keep loading
# --------------------------------------------------------------------- #
def _summary_digest(summary) -> str:
    reprs = {name: {m: repr(a) for m, a in metrics.items()} for name, metrics in summary.items()}
    return hashlib.sha256(json.dumps(reprs, sort_keys=True).encode()).hexdigest()


#: The sha256 of each fixture's summary (every aggregate as its repr) when
#: the fixtures were read by the schema-2 reader.
FIXTURE_SUMMARIES = {
    "record_v1_telemetry_full.json":
        "c8cfa84bbcfc851c6e8583e50259699d32a7c1fb99213ed4f2f253759b1e3e38",
    "record_nested_physical.json":
        "3495e59b7b72e9fd3830b10fc8e7cbd73f17b36b248a9bec38bcd23129ceeaec",
    "record_with_shard_layout.json":
        "f704cb0b3237059dd4e0e6a8cf9283c63bfc973e57daf9e1db29d369f6ec41f3",
    "record_with_solver_flags.json":
        "c3a78c46c91e816999a8d3ff9802f7a8573f6e0c7d99698393d92244486ac798",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SUMMARIES))
def test_old_record_files_keep_their_summaries(name):
    record = api.RunRecord.load(DATA / name)
    assert json.loads((DATA / name).read_text())["schema_version"] in (1, 2)
    assert _summary_digest(record.summary()) == FIXTURE_SUMMARIES[name]
    # Saved again, the record reloads to the same slots.
    again = reloaded(record)
    for trial, loaded in zip(record.trials, again.trials):
        assert trial_to_v2_dict(trial) == trial_to_v2_dict(loaded)


def test_old_study_file_keeps_its_summaries():
    study = api.StudyResult.load(DATA / "study_nested_physical.json")
    summaries = [
        {name: {m: repr(a) for m, a in metrics.items()} for name, metrics in summary.items()}
        for summary in study.summaries()
    ]
    digest = hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()
    assert digest == "afe3c64cb67e601efcfc9c213ffef858c9cbe21fa60fda50d4a3d4de9c1dd300"


def test_checkpoint_in_the_previous_layout_is_run_again(tmp_path):
    scenario = api.Scenario.tiny().with_policies("oscar").with_trials(2)
    clean = api.run_scenario(scenario)
    # What the previous writer saved after the first trial: one object per
    # slot, under the previous checkpoint schema.
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({
        "schema": "repro.checkpoint/1",
        "key": checkpoint_key(scenario.to_dict()),
        "trials": [{
            "results": trial_to_v2_dict(clean.trials[0]),
            "diagnostics": {},
            "provider": [],
        }],
    }))
    rerun = api.run_scenario(scenario, checkpoint=api.RunCheckpoint(path))
    assert rerun.meta["resumed_trials"] == 0
    assert json.dumps(rerun.to_dict()["trials"]) == json.dumps(clean.to_dict()["trials"])
