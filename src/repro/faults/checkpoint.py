"""Run-level checkpointing and graceful interruption.

Long runs (paper-scale sessions, studies, serving horizons) used to be
all-or-nothing: a SIGTERM from a scheduler, a crashed machine or an
impatient Ctrl-C threw away every completed trial.  This module adds the
two halves of graceful degradation at the run level:

* :class:`RunCheckpoint` — periodically snapshots the completed trials of
  a session to a JSON file (atomic write), keyed by a content hash of the
  scenario so a resume against a *different* scenario starts from scratch
  instead of silently mixing results;
* :class:`InterruptGuard` — converts the first ``SIGINT``/``SIGTERM``
  into a cooperative stop flag (the run finishes its current trial,
  flushes a partial record, and exits cleanly); a second signal falls
  back to the ordinary ``KeyboardInterrupt``.

Checkpointed trials are written and read with the public codecs of
:mod:`repro.api.records`, the saved layout of every
:class:`~repro.api.records.RunRecord`, layer stats included, so a resumed
run's tables and stats are identical to an uninterrupted one's.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Schema tag written into every checkpoint file.  Version 2 saves trials in
#: the column layout of record schema 3; a version-1 checkpoint (one object
#: per slot, without the realised fidelities) is not resumed, so its trials
#: are run again.
CHECKPOINT_SCHEMA = "repro.checkpoint/2"


def checkpoint_key(scenario: Mapping[str, object]) -> str:
    """Content hash identifying the scenario a checkpoint belongs to.

    The scenario ``name`` is excluded (same convention as the Study
    ``ResultStore``): renaming a run must not orphan its checkpoint.
    """
    payload = {key: value for key, value in scenario.items() if key != "name"}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunCheckpoint:
    """Periodic snapshots of a session's completed trials.

    Parameters
    ----------
    path:
        Where the checkpoint JSON lives.
    every:
        Snapshot cadence in completed trials (1 = after every trial).
    """

    def __init__(self, path: PathLike, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be positive, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self._saved_trials = 0

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def load(self, key: str) -> List[Tuple[Dict[str, object], Tuple]]:
        """Completed trial outcomes for ``key`` (empty on miss/corruption).

        Returns the contiguous prefix of completed trials, each as the
        ``(results_by_name, provider_records)`` pair the session uses.
        A checkpoint for a different scenario, or an unreadable/corrupt
        file, yields an empty list (with a warning for corruption).
        """
        from repro.api.records import provider_record_from_dict, trial_from_dict

        if not self.path.exists():
            return []
        try:
            payload = json.loads(self.path.read_text())
            if payload.get("schema") != CHECKPOINT_SCHEMA:
                return []
            if payload.get("key") != key:
                return []
            outcomes = []
            for entry in payload["trials"]:
                # A trial saved without its stats resumes without them.
                results = trial_from_dict(entry["results"], entry.get("diagnostics"))
                provider = tuple(
                    provider_record_from_dict(record)
                    for record in entry.get("provider", [])
                )
                outcomes.append((results, provider))
        except (OSError, ValueError, KeyError, TypeError) as error:
            warnings.warn(
                f"ignoring corrupt checkpoint {self.path}: {error!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return []
        self._saved_trials = len(outcomes)
        return outcomes

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save(
        self,
        key: str,
        completed: Sequence[Tuple[Dict[str, object], Tuple]],
    ) -> Path:
        """Write the completed-trial prefix atomically and return the path."""
        from repro.api.records import provider_record_to_dict, trial_diagnostics, trial_to_dict

        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "key": key,
            "trials": [
                {
                    "results": trial_to_dict(results),
                    "diagnostics": trial_diagnostics(results),
                    "provider": [provider_record_to_dict(record) for record in provider],
                }
                for results, provider in completed
            ],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_name(self.path.name + ".tmp")
        scratch.write_text(json.dumps(payload, allow_nan=True))
        os.replace(scratch, self.path)
        self._saved_trials = len(completed)
        return self.path

    def maybe_save(
        self,
        key: str,
        completed: Sequence[Tuple[Dict[str, object], Tuple]],
    ) -> bool:
        """Save if at least ``every`` new trials completed since the last save."""
        if len(completed) - self._saved_trials >= self.every:
            self.save(key, completed)
            return True
        return False

    def clear(self) -> None:
        """Remove the checkpoint (called after a fully completed run)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        self._saved_trials = 0


class InterruptGuard:
    """Cooperative SIGINT/SIGTERM handling for long-running commands.

    Inside the ``with`` block the first signal only sets
    :attr:`triggered` — the caller polls it (or passes
    :meth:`stop_requested` as a run's ``stop_flag``) and winds down
    cleanly, flushing partial records.  A second signal raises
    ``KeyboardInterrupt`` immediately, so an unresponsive run can still
    be killed from the keyboard.  Handlers are restored on exit.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)) -> None:
        self.signals = tuple(signals)
        self.triggered = False
        self._previous: Dict[int, object] = {}

    def stop_requested(self) -> bool:
        """Whether a stop was requested (usable as a ``stop_flag`` callable)."""
        return self.triggered

    def _handle(self, signum: int, frame: object) -> None:
        if self.triggered:
            raise KeyboardInterrupt
        self.triggered = True

    def __enter__(self) -> "InterruptGuard":
        self.triggered = False
        self._previous = {}
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                continue
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, handler in self._previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                continue
        self._previous = {}
