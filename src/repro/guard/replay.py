"""Deterministic crash replay: re-execute a repro bundle's failing trial.

A bundle pins everything the trial depended on — the full scenario
dictionary (seeds included), the trial index, the effective guard level and
any forced-breach spec.  :func:`replay_bundle` reconstructs the scenario,
re-runs exactly that trial under the same guard, and checks that the run
fails the same way: same (check, layer, slot) for an invariant breach, same
exception type otherwise.  On a match it also re-dumps the failure and
verifies the content key is identical to the source bundle's — the
strongest form of "the same failure happened again".
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro.guard.invariants import (
    FORCE_BREACH_ENV_VAR,
    GUARD_ENV_VAR,
    InvariantViolation,
)
from repro.guard.recorder import FlightRecorder, build_bundle, load_bundle
from repro.telemetry import hooks as telemetry_hooks
from repro.telemetry.tracer import events_to_stats, summarize_spans


@dataclass
class ReplayResult:
    """Outcome of replaying one bundle."""

    bundle_path: str
    matched: bool
    kind: str
    expected: Optional[Dict[str, Any]] = None
    observed: Optional[Dict[str, Any]] = None
    replay_key: Optional[str] = None
    source_key: Optional[str] = None
    detail: str = ""
    records_replayed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        status = "MATCH" if self.matched else "MISMATCH"
        lines = [f"replay {self.bundle_path}: {status} ({self.kind})"]
        if self.expected is not None:
            lines.append(
                "  expected: "
                f"[{self.expected.get('layer')}:{self.expected.get('check')}] "
                f"slot {self.expected.get('slot')}"
            )
        if self.observed is not None:
            lines.append(
                "  observed: "
                f"[{self.observed.get('layer')}:{self.observed.get('check')}] "
                f"slot {self.observed.get('slot')}"
            )
        if self.replay_key is not None and self.source_key is not None:
            verdict = "identical" if self.replay_key == self.source_key else "DIFFERENT"
            lines.append(f"  content key: {verdict}")
        if self.detail:
            lines.append(f"  {self.detail}")
        summary = self.extra.get("trace_summary") or []
        if self.matched and summary:
            lines.append(
                f"  trace: {self.extra.get('trace_spans', 0)} spans replayed "
                f"(source: {self.extra.get('trace_source', 'replay')}), hottest:"
            )
            for row in summary[:3]:
                lines.append(
                    f"    {row['name']}: {row['count']:g}x, "
                    f"{row['wall_s'] * 1e3:.2f} ms wall"
                )
        return "\n".join(lines)


@contextmanager
def _pinned_env(values: Dict[str, Optional[str]]) -> Iterator[None]:
    saved = {key: os.environ.get(key) for key in values}
    try:
        for key, value in values.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, previous in saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous


def replay_bundle(path: str) -> ReplayResult:
    """Re-execute the trial a bundle captured and re-assert its failure.

    Runs in-process with the bundle's guard level and forced-breach spec
    pinned through the environment (restored afterwards), so worker
    processes spawned by the trial inherit them too.
    """
    from repro.api.scenario import Scenario
    from repro.api.session import execute_trial

    bundle = load_bundle(path)
    content = bundle["content"]
    kind = content.get("kind", "exception")
    scenario = Scenario.from_dict(content["scenario"])
    trial = int(content["trial"])
    guard_level = content.get("guard_level") or "off"
    expected = content.get("verdict")
    expected_error = content.get("error") or {}

    recorder = FlightRecorder()
    observed_exc: Optional[BaseException] = None
    pinned = {
        GUARD_ENV_VAR: guard_level if guard_level != "off" else None,
        FORCE_BREACH_ENV_VAR: content.get("forced_breach"),
    }
    with _pinned_env(pinned):
        try:
            execute_trial(
                scenario,
                trial,
                on_slot=lambda lineup, record: recorder.record(lineup, record),
            )
        except InvariantViolation as exc:
            observed_exc = exc
        except Exception as exc:  # noqa: BLE001 - replay reports any failure
            observed_exc = exc
        # Re-dump (in memory) under the pinned environment so the forced
        # breach spec lands in the bundle content exactly as the original.
        # The bundle's own scenario dictionary keys it, so a bundle saved
        # with an older config layout (flat fields) still compares equal.
        replay_key = None
        if observed_exc is not None:
            replay_key = build_bundle(
                content["scenario"],
                trial,
                guard_level,
                recorder=recorder,
                error=observed_exc,
            )["key"]

    # The replayed trial's trace, if a tracer was armed (scenario config
    # or REPRO_TELEMETRY): the simulator's ``activate`` left it in
    # ``telemetry_hooks.last()`` even though the run died mid-flight.
    # Fall back to the spans the source bundle attached at crash time.
    tracer = telemetry_hooks.last()
    replay_spans = tracer.tail() if tracer is not None else []
    bundle_spans = (bundle.get("telemetry") or {}).get("spans") or []
    trace_spans = replay_spans or bundle_spans
    extra: Dict[str, Any] = {}
    if trace_spans:
        extra["trace_spans"] = len(trace_spans)
        extra["trace_source"] = "replay" if replay_spans else "bundle"
        extra["trace_summary"] = summarize_spans(events_to_stats(trace_spans))

    source_key = bundle.get("key")
    if observed_exc is None:
        return ReplayResult(
            bundle_path=path,
            matched=False,
            kind=kind,
            expected=expected,
            detail="the replayed trial completed without failing",
            records_replayed=recorder.slots_seen,
            extra=extra,
        )
    if isinstance(observed_exc, InvariantViolation):
        observed = observed_exc.verdict()
        matched = expected is not None and observed_exc.matches(expected)
        detail = "" if matched else "breach identity differs from the bundle verdict"
    else:
        observed = {
            "check": type(observed_exc).__name__,
            "layer": "exception",
            "slot": None,
            "message": str(observed_exc),
        }
        matched = kind == "exception" and expected_error.get("type") == type(
            observed_exc
        ).__name__
        detail = "" if matched else "exception type differs from the bundle"
    if matched and replay_key is not None and source_key is not None:
        matched = replay_key == source_key
        if not matched:
            detail = (
                "the failure identity matched but the replayed bundle content "
                "differs (non-deterministic records)"
            )
    return ReplayResult(
        bundle_path=path,
        matched=matched,
        kind=kind,
        expected=expected if expected is not None else expected_error or None,
        observed=observed,
        replay_key=replay_key,
        source_key=source_key,
        detail=detail,
        records_replayed=recorder.slots_seen,
        extra=extra,
    )
