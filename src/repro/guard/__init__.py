"""Runtime self-verification: invariant guard, flight recorder, replay.

Three pieces, one contract:

* :class:`InvariantGuard` (:mod:`repro.guard.invariants`) — per-layer
  semantic checks (kernel/core/physical/serving/faults) that run alongside
  a simulation at ``guard_level`` ``"cheap"`` or ``"strict"`` and raise
  :class:`InvariantViolation` on a breach.  Purely observational: enabling
  the guard never changes a result.
* :class:`FlightRecorder` (:mod:`repro.guard.recorder`) — a bounded ring of
  recent slot records that, on a breach or crash, dumps a content-addressed
  repro bundle; :mod:`repro.guard.replay` re-executes a bundle's trial and
  re-asserts the identical failure (``repro replay <bundle>``).
* :mod:`repro.guard.differential` — lockstep pairs (slotted vs event
  backend at zero latency) reporting the first diverging slot
  (``repro diff-check``).
"""

from repro.guard.differential import (
    PAIRS,
    DiffReport,
    Divergence,
    compare_slot_records,
    diff_backends,
    run_all,
)
from repro.guard.invariants import (
    FORCE_BREACH_ENV_VAR,
    GUARD_ENV_VAR,
    GUARD_LEVELS,
    InvariantGuard,
    InvariantViolation,
    forced_breach_slot,
)
from repro.guard.recorder import (
    BUNDLE_DIR_ENV_VAR,
    FlightRecorder,
    build_bundle,
    bundle_dir,
    dump_bundle,
    load_bundle,
)
from repro.guard.replay import ReplayResult, replay_bundle

__all__ = [
    "BUNDLE_DIR_ENV_VAR",
    "DiffReport",
    "Divergence",
    "FORCE_BREACH_ENV_VAR",
    "FlightRecorder",
    "GUARD_ENV_VAR",
    "GUARD_LEVELS",
    "InvariantGuard",
    "InvariantViolation",
    "PAIRS",
    "ReplayResult",
    "build_bundle",
    "bundle_dir",
    "compare_slot_records",
    "diff_backends",
    "dump_bundle",
    "forced_breach_slot",
    "load_bundle",
    "replay_bundle",
    "run_all",
]
