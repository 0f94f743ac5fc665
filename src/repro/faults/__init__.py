"""Fault injection and graceful degradation.

The subsystem has three legs, each usable on its own:

* :mod:`repro.faults.model` — deterministic node/edge outage schedules
  (seeded MTBF/MTTR processes plus scripted one-shots) consulted per slot
  by both simulation backends, with summable :class:`FaultStats`;
* :mod:`repro.faults.supervisor` — :class:`PoolSupervisor`, the retrying
  wrapper around the repository's process pools (dead-worker detection,
  capped exponential backoff, optional hang deadline);
* :mod:`repro.faults.checkpoint` — :class:`RunCheckpoint` periodic run
  snapshots and :class:`InterruptGuard` cooperative SIGINT/SIGTERM
  handling.
"""

from repro.faults.checkpoint import (
    CHECKPOINT_SCHEMA,
    InterruptGuard,
    RunCheckpoint,
    checkpoint_key,
)
from repro.faults.model import (
    HEALTHY,
    FaultModel,
    FaultSchedule,
    FaultState,
    FaultStats,
    Outage,
    fault_availability,
)
from repro.faults.supervisor import PoolSupervisor, WorkerPoolError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "HEALTHY",
    "FaultModel",
    "FaultSchedule",
    "FaultState",
    "FaultStats",
    "InterruptGuard",
    "Outage",
    "PoolSupervisor",
    "RunCheckpoint",
    "WorkerPoolError",
    "checkpoint_key",
    "fault_availability",
]
