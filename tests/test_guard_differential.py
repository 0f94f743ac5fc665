"""Lockstep differential harness: implementation pairs must agree slot-for-slot."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.guard.differential import (
    PAIRS,
    compare_slot_records,
    diff_backends,
    run_all,
)


def _tiny():
    return ExperimentConfig.tiny().with_overrides(horizon=6)


# --------------------------------------------------------------------- #
# The comparator itself
# --------------------------------------------------------------------- #
def test_identical_streams_report_ok():
    records = [{"t": 0, "cost": 3}, {"t": 1, "cost": 2}]
    report = compare_slot_records("demo", "a", "b", records, list(records))
    assert report.identical
    assert report.slots_compared == 2
    assert "OK" in report.describe()


def test_first_divergence_is_reported_with_both_snapshots():
    left = [{"t": 0, "cost": 3}, {"t": 1, "cost": 2}]
    right = [{"t": 0, "cost": 3}, {"t": 1, "cost": 5}]
    report = compare_slot_records("demo", "a", "b", left, right)
    assert not report.identical
    div = report.divergence
    assert div.slot == 1 and div.field_name == "cost"
    assert div.left == 2 and div.right == 5
    assert div.left_record == left[1] and div.right_record == right[1]
    assert "DIVERGED at slot 1" in report.describe()


def test_nan_equals_nan_but_floats_are_exact():
    nan = float("nan")
    report = compare_slot_records(
        "demo", "a", "b", [{"x": nan, "y": 1.0}], [{"x": nan, "y": 1.0}]
    )
    assert report.identical
    report = compare_slot_records(
        "demo", "a", "b", [{"y": 1.0}], [{"y": 1.0 + 1e-12}]
    )
    assert not report.identical


def test_record_count_mismatch_diverges():
    report = compare_slot_records("demo", "a", "b", [{"t": 0}], [{"t": 0}, {"t": 1}])
    assert not report.identical
    assert report.divergence.field_name == "<record count>"


def test_missing_field_diverges():
    report = compare_slot_records("demo", "a", "b", [{"t": 0, "q": 1.0}], [{"t": 0}])
    assert not report.identical
    assert report.divergence.field_name == "q"


# --------------------------------------------------------------------- #
# The stock pairs (slow-ish: two full tiny runs each)
# --------------------------------------------------------------------- #
def test_backend_pair_identical_at_zero_latency():
    report = diff_backends(_tiny())
    assert report.identical, report.describe()
    assert report.slots_compared == 6


def test_backend_pair_pins_physical_off():
    # The zero-latency contract covers the logical layer; the two backends
    # model memory dwell differently, so the pair must stay OK even when the
    # caller's config has the physical chain enabled.
    report = diff_backends(_tiny().with_overrides(physical_enabled=True))
    assert report.identical, report.describe()


def test_run_all_covers_every_registered_pair():
    reports = run_all(config=_tiny())
    assert len(reports) == len(PAIRS) == 1
    assert {report.pair for report in reports} == {"backend"}
    assert all(report.identical for report in reports)


def test_run_all_validates_config():
    with pytest.raises(ValueError):
        run_all(config=ExperimentConfig.tiny().with_overrides(horizon=-1))
