"""Unit tests of the runtime invariant guard (repro.guard.invariants)."""

from __future__ import annotations

import json
import math
import pickle

import pytest

from repro import api
from repro.analysis.stats import merge_stat_mappings
from repro.guard import hooks as guard_hooks
from repro.utils.validation import effective_level
from repro.guard.invariants import (
    FORCE_BREACH_ENV_VAR,
    GUARD_ENV_VAR,
    GUARD_LEVELS,
    InvariantGuard,
    InvariantViolation,
    forced_breach_slot,
)


# --------------------------------------------------------------------- #
# Levels and environment overrides
# --------------------------------------------------------------------- #
def test_levels_tuple():
    assert GUARD_LEVELS == ("off", "cheap", "strict")


def test_effective_level_without_env(monkeypatch):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    assert effective_level("off", GUARD_ENV_VAR, GUARD_LEVELS) == "off"
    assert effective_level("cheap", GUARD_ENV_VAR, GUARD_LEVELS) == "cheap"
    assert effective_level("strict", GUARD_ENV_VAR, GUARD_LEVELS) == "strict"


def test_env_override_wins(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "strict")
    assert effective_level("off", GUARD_ENV_VAR, GUARD_LEVELS) == "strict"
    assert effective_level("cheap", GUARD_ENV_VAR, GUARD_LEVELS) == "strict"


def test_invalid_env_level_raises(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "paranoid")
    with pytest.raises(ValueError, match="paranoid"):
        effective_level("off", GUARD_ENV_VAR, GUARD_LEVELS)


def test_build_off_returns_none(monkeypatch):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    assert InvariantGuard.build("off") is None


def test_build_rejects_unknown_level(monkeypatch):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    with pytest.raises(ValueError, match="nope"):
        InvariantGuard.build("nope")


def test_ctor_rejects_off():
    with pytest.raises(ValueError):
        InvariantGuard("off")


def test_forced_breach_slot_env(monkeypatch):
    monkeypatch.delenv(FORCE_BREACH_ENV_VAR, raising=False)
    assert forced_breach_slot() is None
    monkeypatch.setenv(FORCE_BREACH_ENV_VAR, "7")
    assert forced_breach_slot() == 7
    guard = InvariantGuard.build("cheap")
    assert guard is not None and guard.force_slot == 7


# --------------------------------------------------------------------- #
# The violation type
# --------------------------------------------------------------------- #
def test_violation_message_format():
    error = InvariantViolation("queue-finite", "core", "queue is nan", slot=3)
    assert str(error) == "[core:queue-finite] (slot 3) queue is nan"
    assert error.check == "queue-finite"
    assert error.layer == "core"
    assert error.slot == 3


def test_violation_pickles_with_bundle_path():
    error = InvariantViolation("x", "core", "boom", slot=1, details={"a": 1})
    error.bundle_path = "/tmp/bundle.json"
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, InvariantViolation)
    assert clone.check == "x" and clone.slot == 1
    assert clone.bundle_path == "/tmp/bundle.json"


def test_verdict_excludes_bundle_path():
    error = InvariantViolation("x", "core", "boom", slot=1)
    error.details["bundle_path"] = "/somewhere.json"
    assert "bundle_path" not in error.verdict()["details"]


def test_matches_compares_identity():
    error = InvariantViolation("x", "core", "boom", slot=1)
    assert error.matches(error.verdict())
    other = InvariantViolation("x", "core", "boom", slot=2)
    assert not other.matches(error.verdict())


# --------------------------------------------------------------------- #
# Forced synthetic breach
# --------------------------------------------------------------------- #
def test_forced_breach_fires_once_at_or_after_slot():
    guard = InvariantGuard("cheap", force_slot=2)
    guard.begin_slot(0)
    guard.begin_slot(1)
    with pytest.raises(InvariantViolation) as info:
        guard.begin_slot(2)
    assert info.value.check == "forced-breach"
    assert info.value.slot == 2
    # Fires once; later slots pass.
    guard.begin_slot(3)
    assert guard.counters["breaches"] == 1


# --------------------------------------------------------------------- #
# Individual check packs (synthetic inputs)
# --------------------------------------------------------------------- #
def test_check_objective_rejects_nan_and_plus_inf():
    guard = InvariantGuard("cheap")
    guard.check_objective(-math.inf)  # legitimate log(0) utility
    guard.check_objective(1.5)
    with pytest.raises(InvariantViolation, match="objective-finite"):
        guard.check_objective(math.nan)
    with pytest.raises(InvariantViolation, match="objective-finite"):
        guard.check_objective(math.inf)


def test_queue_history_rejects_negative_and_nonfinite():
    guard = InvariantGuard("cheap")
    guard.check_queue_history([0.0, 1.0, 2.5])
    with pytest.raises(InvariantViolation, match="queue-history"):
        guard.check_queue_history([0.0, -0.5])
    with pytest.raises(InvariantViolation, match="queue-history"):
        guard.check_queue_history([0.0, math.nan])


def test_queue_conservation_replay_strict():
    guard = InvariantGuard("strict")
    budget = 2.0
    costs = [3.0, 1.0, 0.0]
    history = [10.0]
    for cost in costs:
        history.append(max(0.0, history[-1] + cost - budget))
    guard.check_queue_history(history, per_slot_budget=budget, costs=costs)
    # Perturb one recorded entry: the recursion replay must catch it.
    history[2] += 0.5
    with pytest.raises(InvariantViolation, match="queue-conservation"):
        guard.check_queue_history(history, per_slot_budget=budget, costs=costs)


def test_queue_conservation_skipped_when_cheap():
    guard = InvariantGuard("cheap")
    # Same perturbed history passes at the cheap level (only sign/NaN checks).
    guard.check_queue_history([10.0, 99.0], per_slot_budget=2.0, costs=[3.0])


def test_fidelity_range():
    guard = InvariantGuard("cheap")
    guard.check_fidelities([0.0, 0.5, 1.0])
    with pytest.raises(InvariantViolation, match="fidelity-range"):
        guard.check_fidelities([1.2])
    with pytest.raises(InvariantViolation, match="fidelity-range"):
        guard.check_fidelities([math.nan])


def test_decoherence_monotone_strict():
    class RaisingModel:
        dwell_time = 0.1

        def decohered_fidelity(self, value):
            return min(1.0, value * 1.5)  # pathological: decay raises fidelity

    guard = InvariantGuard("strict")
    with pytest.raises(InvariantViolation, match="decoherence-monotone"):
        guard.check_fidelities([0.6], model=RaisingModel())


def test_physical_stats_conservation():
    guard = InvariantGuard("cheap")
    good = {
        "requests": 10,
        "attempts": 8,
        "link_failures": 2,
        "purify_failures": 1,
        "cutoff_discards": 0,
        "swap_failures": 3,
        "delivered": 4,
        "fidelity_served": 2,
        "fidelity_sum": 3.1,
    }
    guard.check_physical_stats(good)
    guard.check_physical_stats(None)  # physical layer disabled: no-op
    bad = dict(good, link_failures=3)
    with pytest.raises(InvariantViolation, match="physical-request-conservation"):
        guard.check_physical_stats(bad)
    bad = dict(good, delivered=5)
    with pytest.raises(InvariantViolation, match="physical-attempt-conservation"):
        guard.check_physical_stats(bad)
    bad = dict(good, fidelity_served=5)
    with pytest.raises(InvariantViolation, match="physical-fidelity-subset"):
        guard.check_physical_stats(bad)
    bad = dict(good, fidelity_sum=4.5)
    with pytest.raises(InvariantViolation, match="physical-fidelity-sum"):
        guard.check_physical_stats(bad)


def test_serving_totals_conservation():
    guard = InvariantGuard("cheap")
    good = {
        "sessions_arrived": 5,
        "sessions_admitted": 3,
        "sessions_rejected": 2,
        "sessions_departed": 1,
        "requests_served": 7,
        "requests_realized": 6,
    }
    guard.check_serving_totals(good)
    with pytest.raises(InvariantViolation, match="serving-admission-conservation"):
        guard.check_serving_totals(dict(good, sessions_rejected=1))
    with pytest.raises(InvariantViolation, match="serving-departure-bound"):
        guard.check_serving_totals(dict(good, sessions_departed=4))
    with pytest.raises(InvariantViolation, match="serving-realization-bound"):
        guard.check_serving_totals(dict(good, requests_realized=9))


def _serving_table():
    """A session table after two slots: three sessions, all with a backlog."""
    from repro.serving.arrivals import SessionSpec
    from repro.serving.scheduler import SessionTable

    joins = [
        (
            SessionSpec(
                session_id=i, joined_slot=0, source="a", destination="b",
                request_rate=3.0, lifetime=10, renew_probability=0.0, seed=i,
            ),
            2, 0.5, 1, 0,
        )
        for i in range(3)
    ]
    table = SessionTable()
    table.step(0, joins)
    outcome = table.step(1)
    assert (table.backlog > 0).all() and (table.served > 0).all()
    return table, outcome


def _check_slot(guard, table, outcome, queue_length=0.0):
    guard.check_serving_slot(
        1, table, len(outcome.realized), outcome.backlog, queue_length
    )


def test_serving_slot_accepts_a_consistent_table():
    table, outcome = _serving_table()
    _check_slot(InvariantGuard("strict"), table, outcome)


@pytest.mark.parametrize("queue_length", [-1.0, math.nan])
def test_serving_slot_rejects_a_bad_virtual_queue(queue_length):
    table, outcome = _serving_table()
    with pytest.raises(InvariantViolation, match="serving-queue"):
        _check_slot(InvariantGuard("cheap"), table, outcome, queue_length)


def test_serving_slot_backlog_column_must_sum_to_the_reported_backlog():
    table, outcome = _serving_table()
    table.backlog[0] += 1
    with pytest.raises(InvariantViolation, match="serving-backlog-merge"):
        _check_slot(InvariantGuard("cheap"), table, outcome)


def test_serving_slot_served_column_must_match_the_realisations():
    table, outcome = _serving_table()
    table.served[1] -= 1
    _check_slot(InvariantGuard("cheap"), table, outcome)  # strict-only check
    with pytest.raises(InvariantViolation, match="serving-realization-shape"):
        _check_slot(InvariantGuard("strict"), table, outcome)


def test_serving_slot_service_must_fit_the_capacity_column():
    table, outcome = _serving_table()
    table.capacity[2] = 0
    with pytest.raises(InvariantViolation, match="serving-entry-range"):
        _check_slot(InvariantGuard("strict"), table, outcome)


def test_serving_slot_backlog_column_must_not_go_negative():
    table, outcome = _serving_table()
    shift = int(table.backlog[0]) + 1
    table.backlog[0] -= shift
    table.backlog[1] += shift  # the sum still matches the reported backlog
    with pytest.raises(InvariantViolation, match="serving-entry-range"):
        _check_slot(InvariantGuard("strict"), table, outcome)


def test_serving_slot_queue_batches_must_sum_to_the_backlog_column():
    table, outcome = _serving_table()
    table.queue[2, 0] += 1  # one batch's count
    _check_slot(InvariantGuard("cheap"), table, outcome)  # strict-only check
    with pytest.raises(InvariantViolation, match="serving-queue-batches"):
        _check_slot(InvariantGuard("strict"), table, outcome)


class _StubState:
    def __init__(self, down):
        self.down_elements = down

    def __bool__(self):
        return True


class _StubSchedule:
    """Two elements, element 0 down at slot 1 (of 3)."""

    num_elements = 2

    def state_at(self, t):
        return _StubState(1 if t == 1 else 0)

    def availability_at(self, t):
        return 0.5 if t == 1 else 1.0


def test_fault_stats_against_schedule():
    guard = InvariantGuard("strict")
    stats = {"slots": 3, "element_slots": 6, "down_element_slots": 1}
    guard.check_fault_stats(_StubSchedule(), stats)
    with pytest.raises(InvariantViolation, match="fault-element-slots"):
        guard.check_fault_stats(_StubSchedule(), dict(stats, element_slots=5))
    with pytest.raises(InvariantViolation, match="fault-schedule-recount"):
        guard.check_fault_stats(_StubSchedule(), dict(stats, down_element_slots=2))


def test_counters_accumulate_per_layer():
    guard = InvariantGuard("cheap")
    guard.begin_slot(0)
    guard.check_objective(0.0)
    guard.check_fidelities([0.5])
    stats = guard.stats()
    assert stats["slots"] == 1
    assert stats["checks_kernel"] == 1
    assert stats["checks_physical"] == 1
    assert stats["checks"] == stats["checks_kernel"] + stats["checks_physical"]
    assert stats["breaches"] == 0


def test_merge_guard_stats():
    merged = merge_stat_mappings([{"checks": 2, "slots": 1}, {"checks": 3, "slots": 4}])
    assert merged == {"checks": 5, "slots": 5}
    assert merge_stat_mappings([None, "x"]) is None


# --------------------------------------------------------------------- #
# Ambient hooks
# --------------------------------------------------------------------- #
def test_hooks_activate_and_restore():
    assert guard_hooks.get() is None
    outer = InvariantGuard("cheap")
    inner = InvariantGuard("strict")
    with guard_hooks.activate(outer) as active:
        assert active is outer and guard_hooks.get() is outer
        with guard_hooks.activate(inner):
            assert guard_hooks.get() is inner
        assert guard_hooks.get() is outer
    assert guard_hooks.get() is None


def test_hooks_accept_none():
    with guard_hooks.activate(None):
        assert guard_hooks.get() is None


# --------------------------------------------------------------------- #
# The guard only observes: no level changes a saved result
# --------------------------------------------------------------------- #
GUARDED_SCENARIOS = {
    "slotted-physical": lambda base: base.with_physical(purify_rounds=1),
    "event-faults": lambda base: base.with_backend("event", latency=0.002).with_faults(
        edge_mtbf=20.0, mttr=4.0
    ),
    "serving": lambda base: base.with_serving(arrival_rate=1.0),
}


@pytest.mark.parametrize("name", sorted(GUARDED_SCENARIOS))
def test_saved_trials_identical_at_every_guard_level(name, monkeypatch):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    monkeypatch.delenv(FORCE_BREACH_ENV_VAR, raising=False)
    scenario = GUARDED_SCENARIOS[name](api.Scenario.tiny().with_trials(1))
    trials = {}
    for level in GUARD_LEVELS:
        record = scenario.with_guard(level).run()
        trials[level] = json.dumps(record.to_dict()["trials"], sort_keys=True)
        if level != "off":
            assert record.stats("guard")["checks"] > 0
    assert trials["cheap"] == trials["off"]
    assert trials["strict"] == trials["off"]
