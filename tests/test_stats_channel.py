"""The one stats channel: every layer's stats merge, save and reload alike.

Each result's ``diagnostics`` mapping carries one summable mapping per layer
of :data:`repro.api.STATS_LAYERS`; ``RunRecord.stats(layer)`` and
``StudyResult.stats(layer)`` merge them, a saved record keeps them, and the
``[health]`` line renders them.  A saved, store-served or reloaded run must
report exactly what the live run reported.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import _HEALTH_FRAGMENTS, _health_line
from repro.telemetry import TELEMETRY_ENV_VAR

#: One scenario per driver, each arming the layers it can carry.
DRIVERS = {
    "slotted": (
        lambda s: s.with_physical()
        .with_faults(aware=False, edge_mtbf=20.0, node_mtbf=60.0, mttr=4.0)
        .with_guard("strict"),
        {"kernel", "physical", "faults", "guard"},
    ),
    "event": (
        lambda s: s.with_backend().with_faults(edge_mtbf=20.0, mttr=4.0),
        {"kernel", "eventsim", "faults"},
    ),
    "multiuser": (
        lambda s: s.with_user("a").with_user("b", "myopic-fixed").with_physical(),
        {"kernel", "physical"},
    ),
    "serving": (
        lambda s: s.with_serving(arrival_rate=1.0).with_faults(edge_mtbf=20.0, mttr=4.0),
        {"serving", "faults"},
    ),
}


def _run(driver: str, telemetry: str) -> api.RunRecord:
    configure, _ = DRIVERS[driver]
    base = api.Scenario.tiny().with_trials(2).with_telemetry(telemetry)
    return configure(base).run()


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_GUARD", raising=False)


@pytest.mark.parametrize("telemetry", ["off", "light"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_saved_record_reports_the_live_stats(driver, telemetry, tmp_path):
    record = _run(driver, telemetry)
    expected = DRIVERS[driver][1] | ({"telemetry"} if telemetry == "light" else set())
    present = {layer for layer in api.STATS_LAYERS if record.stats(layer) is not None}
    assert present == expected

    loaded = api.RunRecord.load(record.save(tmp_path / "record.json"))
    for layer in api.STATS_LAYERS:
        assert loaded.stats(layer) == record.stats(layer), layer
    line = _health_line(record)
    assert line is not None
    assert _health_line(loaded) == line


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_layer_values_are_builtin_numbers(driver):
    record = _run(driver, "light")
    for trial in record.trials:
        for result in trial.values():
            for layer in api.STATS_LAYERS:
                for key, value in (result.diagnostics.get(layer) or {}).items():
                    assert type(value) in (int, float), (layer, key, type(value))


def test_saved_diagnostics_leave_out_per_slot_histories():
    record = _run("multiuser", "full")
    payload = record.to_dict()
    assert payload["schema_version"] == 2
    assert len(payload["diagnostics"]) == len(payload["trials"])
    for trial, saved in zip(payload["trials"], payload["diagnostics"]):
        assert set(saved) == set(trial)
        for diagnostics in saved.values():
            assert set(diagnostics) <= set(api.STATS_LAYERS) | {"telemetry_spans"}
    # The run-level layers ride the first tenant, spans included.
    assert "telemetry_spans" in payload["diagnostics"][0]["a"]
    assert "queue_history" in record.trials[0]["a"].diagnostics


def test_unknown_layer_is_rejected():
    record = api.RunRecord(scenario={"config": {}}, trials=[])
    study = api.StudyResult(name="s", axes=[], points=[], records=[])
    for source in (record, study):
        for layer in ("event", "fault", "bogus"):
            with pytest.raises(ValueError, match="unknown stats layer"):
                source.stats(layer)


def test_health_table_is_keyed_by_layer():
    assert tuple(_HEALTH_FRAGMENTS) == api.STATS_LAYERS


def test_one_accessor_per_result_type():
    assert [name for name in dir(api.StudyResult) if name.endswith("_stats")] == []
    assert "guard_stats" not in dir(api.RunRecord)
    assert "telemetry" not in {f.name for f in dataclasses.fields(api.RunRecord)}


def test_store_served_study_keeps_its_stats(tmp_path):
    base = api.Scenario.tiny().with_policies("oscar", "mf").with_trials(1)
    study = api.Study("stats-store").base(base).over("budget.total_budget", [200, 250])
    fresh = study.run(store=tmp_path / "store")
    served = study.run(store=tmp_path / "store")
    assert served.meta["points_cached"] == 2
    assert fresh.stats("kernel") is not None
    assert served.stats("kernel") == fresh.stats("kernel")
    assert _health_line(served) == _health_line(fresh)

    loaded = api.StudyResult.load(fresh.save(tmp_path / "study.json"))
    for layer in api.STATS_LAYERS:
        assert loaded.stats(layer) == fresh.stats(layer), layer


def test_version_1_record_loads_its_telemetry():
    # Written by the schema-1 writer (`repro compare --scale tiny --trials 1
    # --policies oscar mf --telemetry full --output ...`), which saved only a
    # run-level telemetry section.
    path = Path(__file__).parent / "data" / "record_v1_telemetry_full.json"
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    record = api.RunRecord.load(path)
    assert record.stats("telemetry") == payload["telemetry"]["stats"]
    assert record.telemetry_spans() == payload["telemetry"]["spans"]
    assert record.stats("kernel") is None
    # Saved again, it keeps the telemetry in the current form.
    again = api.RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert again.stats("telemetry") == record.stats("telemetry")
    assert again.telemetry_spans() == record.telemetry_spans()
