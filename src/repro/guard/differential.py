"""Differential harness: lockstep pairs that must agree slot for slot.

The suite carries bit-identity contracts as equality assertions, such as
the event backend reproducing the slotted backend at zero
classical-signaling latency.  This module turns them into an on-demand
validator: each :func:`diff_*` runner executes both sides of one pair under
identical seeds, compares the per-slot records field-by-field, and reports
the **first diverging slot with both snapshots** — the debugging artifact
the equality assertions in the tests cannot give you.

Runners return a :class:`DiffReport`; :func:`run_all` executes every pair
on a stock tiny scenario (the ``repro diff-check`` CLI).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Relative tolerance of float comparisons.  The pairs are bit-identity
#: contracts, so this is effectively "equal up to repr round-trip"; it only
#: exists to keep the harness usable if a future pair is
#: equivalent-but-not-bitwise.
_REL_TOL = 0.0


@dataclass
class Divergence:
    """First disagreement of one lockstep pair."""

    slot: int
    field_name: str
    left: Any
    right: Any
    left_record: Dict[str, Any] = field(default_factory=dict)
    right_record: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DiffReport:
    """Outcome of one differential pair."""

    pair: str
    left_label: str
    right_label: str
    slots_compared: int
    divergence: Optional[Divergence] = None

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        if self.identical:
            return (
                f"{self.pair}: OK — {self.left_label} == {self.right_label} "
                f"over {self.slots_compared} slot(s)"
            )
        div = self.divergence
        lines = [
            f"{self.pair}: DIVERGED at slot {div.slot} on field {div.field_name!r}",
            f"  {self.left_label}: {div.left!r}",
            f"  {self.right_label}: {div.right!r}",
            f"  {self.left_label} snapshot: {div.left_record}",
            f"  {self.right_label} snapshot: {div.right_record}",
        ]
        return "\n".join(lines)


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) and math.isnan(right):
            return True
        if _REL_TOL > 0.0:
            return math.isclose(left, right, rel_tol=_REL_TOL)
        return left == right
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(_values_equal(a, b) for a, b in zip(left, right))
    return left == right


def compare_slot_records(
    pair: str,
    left_label: str,
    right_label: str,
    left_records: List[Any],
    right_records: List[Any],
) -> DiffReport:
    """Field-by-field comparison of two per-slot record streams."""

    def as_dict(record: Any) -> Dict[str, Any]:
        if dataclasses.is_dataclass(record) and not isinstance(record, type):
            return dataclasses.asdict(record)
        return dict(record)

    count = min(len(left_records), len(right_records))
    for index in range(count):
        left = as_dict(left_records[index])
        right = as_dict(right_records[index])
        for field_name in sorted(set(left) | set(right)):
            if not _values_equal(left.get(field_name), right.get(field_name)):
                return DiffReport(
                    pair,
                    left_label,
                    right_label,
                    slots_compared=index + 1,
                    divergence=Divergence(
                        slot=left.get("t", index),
                        field_name=field_name,
                        left=left.get(field_name),
                        right=right.get(field_name),
                        left_record=left,
                        right_record=right,
                    ),
                )
    if len(left_records) != len(right_records):
        return DiffReport(
            pair,
            left_label,
            right_label,
            slots_compared=count,
            divergence=Divergence(
                slot=count,
                field_name="<record count>",
                left=len(left_records),
                right=len(right_records),
            ),
        )
    return DiffReport(pair, left_label, right_label, slots_compared=count)


# --------------------------------------------------------------------------- #
# Pair runners
# --------------------------------------------------------------------------- #
def _collect_run(config, trial: int = 0) -> List[Any]:
    """Per-slot records of OSCAR alone under ``config``, wired like any trial."""
    from repro.api.registry import default_registry
    from repro.api.scenario import Scenario
    from repro.api.session import build_trial
    from repro.utils.rng import spawn_rngs

    simulator, run_seed = build_trial(Scenario.from_config(config), trial)
    oscar = default_registry.make("oscar", config)
    return list(simulator.run(oscar, seed=spawn_rngs(run_seed, 1)[0]).records)


def diff_backends(config=None, trial: int = 0) -> DiffReport:
    """Slotted vs event-driven backend at zero classical-signaling latency.

    The zero-latency equivalence contract covers the logical layer only:
    the two backends intentionally model memory dwell differently (the
    slotted backend decoheres delivered pairs over the fixed slot dwell, the
    event backend over each pair's measured dwell), so the physical delivery
    chain is pinned off here.
    """
    from repro.experiments.config import ExperimentConfig

    base = config or ExperimentConfig.tiny()
    zero_latency = base.with_overrides(
        physical=None, **{"timing.signaling_latency_s": 0.0, "timing.edge_latency_s": None}
    )
    slotted = zero_latency.with_overrides(**{"timing.backend": "slotted"})
    event = zero_latency.with_overrides(**{"timing.backend": "event"})
    return compare_slot_records(
        "backend",
        "slotted",
        "event@0-latency",
        _collect_run(slotted, trial=trial),
        _collect_run(event, trial=trial),
    )


#: The stock pairs, in the order ``repro diff-check`` runs them.
PAIRS: Tuple[Tuple[str, Callable[..., DiffReport]], ...] = (
    ("backend", diff_backends),
)


def run_all(config=None, trial: int = 0) -> List[DiffReport]:
    """Every stock lockstep pair on one configuration."""
    return [runner(config, trial=trial) for _, runner in PAIRS]
