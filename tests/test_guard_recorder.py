"""Flight recorder, repro bundles and the crash-replay round trip."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import pytest

from repro import api
from repro.guard.invariants import (
    FORCE_BREACH_ENV_VAR,
    GUARD_ENV_VAR,
    InvariantViolation,
)
from repro.guard.recorder import (
    BUNDLE_VERSION,
    FlightRecorder,
    build_bundle,
    bundle_dir,
    dump_bundle,
    load_bundle,
)
from repro.guard.replay import replay_bundle


@dataclasses.dataclass
class FakeRecord:
    t: int
    cost: float
    note: float = math.nan


SCENARIO = {"config": {"horizon": 5}, "policies": ["oscar"]}


# --------------------------------------------------------------------- #
# The ring buffer
# --------------------------------------------------------------------- #
def test_ring_keeps_only_the_tail():
    recorder = FlightRecorder(capacity=3)
    for t in range(10):
        recorder.record("oscar", FakeRecord(t=t, cost=1.0))
    assert recorder.slots_seen == 10
    tail = recorder.tail()
    assert [entry["record"]["t"] for entry in tail] == [7, 8, 9]
    assert all(entry["lineup"] == "oscar" for entry in tail)


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_records_are_jsonable_including_nan():
    recorder = FlightRecorder()
    recorder.record("oscar", FakeRecord(t=0, cost=float("inf")))
    entry = recorder.tail()[0]["record"]
    assert entry["cost"] == "inf"
    assert entry["note"] == "nan"
    json.dumps(recorder.tail())  # must not raise


# --------------------------------------------------------------------- #
# Bundles
# --------------------------------------------------------------------- #
def test_bundle_kind_classification():
    breach = InvariantViolation("x", "core", "boom", slot=1)
    assert build_bundle(SCENARIO, 0, "strict", error=breach)["content"]["kind"] == (
        "invariant-breach"
    )
    assert build_bundle(SCENARIO, 0, "strict", error=RuntimeError("?"))["content"][
        "kind"
    ] == "exception"
    assert build_bundle(SCENARIO, 0, "strict")["content"]["kind"] == "manual"


def test_content_key_ignores_environment(monkeypatch):
    monkeypatch.delenv(FORCE_BREACH_ENV_VAR, raising=False)
    # The suite itself may run under REPRO_GUARD=strict; clear it so the
    # first bundle really records an unset guard env.
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    first = build_bundle(SCENARIO, 0, "strict")
    monkeypatch.setenv(GUARD_ENV_VAR, "strict")
    second = build_bundle(SCENARIO, 0, "strict")
    # The env shows up in the advisory block but never in the key.
    assert first["key"] == second["key"]
    assert first["environment"][GUARD_ENV_VAR] is None
    assert second["environment"][GUARD_ENV_VAR] == "strict"


def test_content_key_tracks_content():
    base = build_bundle(SCENARIO, 0, "strict")["key"]
    assert build_bundle(SCENARIO, 1, "strict")["key"] != base
    assert build_bundle(SCENARIO, 0, "cheap")["key"] != base


def test_dump_respects_bundle_dir_env(tmp_path, monkeypatch):
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(target))
    assert bundle_dir() == str(target)
    path = dump_bundle(SCENARIO, 0, "strict")
    assert os.path.dirname(path) == str(target)
    assert os.path.basename(path).endswith(".json")


def test_dump_load_round_trip(tmp_path):
    recorder = FlightRecorder()
    recorder.record("oscar", FakeRecord(t=0, cost=2.0))
    error = InvariantViolation("queue-finite", "core", "bad", slot=4)
    path = dump_bundle(
        SCENARIO, 3, "strict", recorder=recorder, error=error,
        directory=str(tmp_path),
    )
    bundle = load_bundle(path)
    content = bundle["content"]
    assert content["trial"] == 3
    assert content["verdict"]["check"] == "queue-finite"
    assert content["slots_seen"] == 1
    assert os.path.basename(path) == f"{bundle['key']}.json"
    # Re-dumping the identical failure lands on the same file.
    assert dump_bundle(
        SCENARIO, 3, "strict", recorder=recorder, error=error,
        directory=str(tmp_path),
    ) == path
    assert len(list(tmp_path.iterdir())) == 1


def test_load_rejects_corruption(tmp_path):
    path = dump_bundle(SCENARIO, 0, "strict", directory=str(tmp_path))
    bundle = json.loads(open(path).read())
    bundle["content"]["trial"] = 99  # tamper without updating the key
    with open(path, "w") as handle:
        json.dump(bundle, handle)
    with pytest.raises(ValueError, match="corrupt"):
        load_bundle(path)


def test_load_rejects_wrong_version(tmp_path):
    path = dump_bundle(SCENARIO, 0, "strict", directory=str(tmp_path))
    bundle = json.loads(open(path).read())
    bundle["content"]["version"] = BUNDLE_VERSION + 1
    with open(path, "w") as handle:
        json.dump(bundle, handle)
    with pytest.raises(ValueError, match="version"):
        load_bundle(path)


def test_load_rejects_non_bundle(tmp_path):
    path = tmp_path / "not-a-bundle.json"
    path.write_text("{}")
    with pytest.raises(ValueError, match="not a repro bundle"):
        load_bundle(str(path))


# --------------------------------------------------------------------- #
# Breach → bundle → replay round trip (end to end, in process)
# --------------------------------------------------------------------- #
def _tiny_scenario():
    config = api.Scenario.tiny().config.with_overrides(
        horizon=6, trials=1, guard_level="strict"
    )
    return api.Scenario.from_config(config, name="guard-replay").with_policies("oscar")


def test_forced_breach_dumps_bundle_and_replays(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
    monkeypatch.setenv(FORCE_BREACH_ENV_VAR, "2")
    scenario = _tiny_scenario()
    with pytest.raises(InvariantViolation) as info:
        api.execute_trial(scenario, 0)
    error = info.value
    assert error.check == "forced-breach" and error.slot == 2
    path = error.bundle_path
    assert path is not None and os.path.exists(path)

    # Replay from a clean environment: the bundle re-pins everything.
    monkeypatch.delenv(FORCE_BREACH_ENV_VAR, raising=False)
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    result = replay_bundle(path)
    assert result.matched, result.describe()
    assert result.kind == "invariant-breach"
    assert result.replay_key == result.source_key
    assert "MATCH" in result.describe()


def test_bundle_with_a_flat_config_replays_to_its_key(monkeypatch, tmp_path):
    """A bundle dumped when the layers were flat config fields (``repro
    compare --scale tiny --trials 1 --policies oscar --guard cheap
    --physical`` with ``REPRO_FORCE_BREACH=3``) still replays and matches:
    its flat config loads through the name table, and the replay key is
    computed over the bundle's own scenario dictionary."""
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
    monkeypatch.delenv(FORCE_BREACH_ENV_VAR, raising=False)
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    path = os.path.join(os.path.dirname(__file__), "data", "bundle_flat_config.json")
    result = replay_bundle(path)
    assert result.matched, result.describe()
    assert result.replay_key == result.source_key


def test_unhandled_exception_dumps_bundle(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
    scenario = _tiny_scenario()

    def explode(lineup, record):
        raise RuntimeError("observer blew up")

    with pytest.raises(RuntimeError, match="observer blew up"):
        api.execute_trial(scenario, 0, on_slot=explode)
    bundles = list((tmp_path / "bundles").glob("*.json"))
    assert len(bundles) == 1
    assert load_bundle(str(bundles[0]))["content"]["kind"] == "exception"


def test_dump_failure_never_masks_the_original_error(monkeypatch, tmp_path, capsys):
    # The recorder is best-effort: if snapshotting or writing the bundle
    # blows up, the caller must still see the real exception.
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
    scenario = _tiny_scenario()

    def broken_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("repro.api.session.dump_bundle", broken_dump)

    def explode(lineup, record):
        raise RuntimeError("the real failure")

    with pytest.raises(RuntimeError, match="the real failure"):
        api.execute_trial(scenario, 0, on_slot=explode)
    assert "could not dump a repro bundle" in capsys.readouterr().err


def test_guard_off_never_dumps(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    config = api.Scenario.tiny().config.with_overrides(horizon=6, trials=1)
    scenario = api.Scenario.from_config(config, name="off").with_policies("oscar")

    def explode(lineup, record):
        raise RuntimeError("no recorder armed")

    with pytest.raises(RuntimeError):
        api.execute_trial(scenario, 0, on_slot=explode)
    assert not (tmp_path / "bundles").exists()
