"""The span tracer: nestable, exception-safe timing of the pipeline stages.

The telemetry subsystem mirrors the invariant guard's discipline exactly
(:mod:`repro.guard.invariants`): a level string threaded from
``ExperimentConfig`` down to the simulators, a ``REPRO_TELEMETRY``
environment override applied at *construction* time (so scenario
dictionaries and content-addressed store keys are identical whether the
variable is set or not, and worker processes — which inherit the
environment — apply the same level as the parent), and a hard no-op
contract at ``off``: :meth:`Tracer.build` returns ``None``, no recorder
object exists, no randomness is drawn, and every produced table is
byte-identical to the historical output
(``tests/test_off_builds_nothing.py`` checks that no tracer is built).

Levels:

``off``
    No tracer.  Call sites hold a ``None`` and take the plain path.
``light``
    Per-span-name aggregation only (count, wall seconds, CPU seconds)
    plus the metrics registry — constant memory, the default for
    always-on profiling.
``full``
    ``light`` plus a bounded ring of individual span events (pid/tid
    stamped) for Chrome-trace / Perfetto export and crash-bundle
    attachment.

Spans are plain ``with`` blocks and re-entrant by name::

    with tracer.span("kernel.solve", slot=t):
        decision = policy.decide(context, seed=rng)

Timing uses ``time.perf_counter`` (wall) and ``time.process_time``
(CPU); both are monotonic and RNG-free.  Everything a tracer collects is
observational — removing every call site changes no produced number.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, Deque, Dict, Iterator, List, Mapping, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.utils.validation import check_choice, effective_level

__all__ = [
    "TELEMETRY_LEVELS",
    "TELEMETRY_ENV_VAR",
    "METRICS_JSONL_ENV_VAR",
    "METRICS_EVERY_ENV_VAR",
    "DEFAULT_SPAN_RING",
    "TelemetryModel",
    "Tracer",
    "events_to_stats",
    "maybe_span",
    "summarize_spans",
]

#: The recognised telemetry levels, cheapest first.
TELEMETRY_LEVELS = ("off", "light", "full")

#: Environment override of the configured telemetry level.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Optional JSONL metrics-snapshot sink (periodic flush target).
METRICS_JSONL_ENV_VAR = "REPRO_METRICS_JSONL"

#: Flush period in slots for the JSONL sink (0 disables periodic flush).
METRICS_EVERY_ENV_VAR = "REPRO_METRICS_EVERY"

#: Default capacity of the per-trial span-event ring at the ``full`` level.
DEFAULT_SPAN_RING = 2048


@dataclass(frozen=True)
class TelemetryModel:
    """The telemetry layer of a configuration (``ExperimentConfig.telemetry``).

    ``level`` is ``"light"`` or ``"full"``; a configuration with telemetry
    off holds no model at all, so ``"off"`` is not a model level.
    """

    level: str = "light"
    span_ring: int = DEFAULT_SPAN_RING

    def __post_init__(self) -> None:
        check_choice(self.level, TELEMETRY_LEVELS[1:], "telemetry level")
        if int(self.span_ring) <= 0:
            raise ValueError(f"span_ring must be positive, got {self.span_ring}")


class Tracer:
    """One run's span recorder, metrics registry and profiling aggregate.

    Built fresh per trial/run via :meth:`build` (``None`` when the
    effective level is ``off``), installed ambiently with
    :func:`repro.telemetry.hooks.activate` for call sites that cannot be
    threaded a handle, and drained into
    ``diagnostics["telemetry"]`` / ``diagnostics["telemetry_spans"]`` at
    the end of the run — the only channel that crosses worker-pool
    process boundaries.
    """

    __slots__ = (
        "level",
        "span_ring",
        "metrics",
        "slots_seen",
        "_agg",
        "_events",
        "_appended",
        "_depth",
        "_pid",
        "_tid",
        "_epoch",
        "_flush_path",
        "_flush_every",
        "_next_flush",
    )

    def __init__(self, level: str, span_ring: int = DEFAULT_SPAN_RING) -> None:
        if level not in TELEMETRY_LEVELS or level == "off":
            raise ValueError(f"a Tracer runs at 'light' or 'full', got {level!r}")
        self.level = level
        self.span_ring = int(span_ring)
        self.metrics = MetricsRegistry()
        self.slots_seen = 0
        # name -> [count, wall_s, cpu_s]
        self._agg: Dict[str, List[float]] = {}
        self._events: Optional[Deque[Dict[str, Any]]] = (
            deque(maxlen=self.span_ring) if level == "full" else None
        )
        self._appended = 0
        self._depth = 0
        self._pid = os.getpid()
        self._tid = threading.get_ident() % 1_000_000
        self._epoch = time.perf_counter()
        self._flush_path = os.environ.get(METRICS_JSONL_ENV_VAR, "").strip() or None
        raw_every = os.environ.get(METRICS_EVERY_ENV_VAR, "").strip()
        try:
            self._flush_every = int(raw_every) if raw_every else 0
        except ValueError:
            raise ValueError(
                f"invalid {METRICS_EVERY_ENV_VAR}={raw_every!r}; expected an integer"
            )
        self._next_flush = self._flush_every

    @classmethod
    def build(cls, model: Optional[TelemetryModel] = None) -> Optional["Tracer"]:
        """The tracer for ``model`` after env overrides; ``None`` when off.

        ``model=None`` means "configured off" — the ``REPRO_TELEMETRY``
        variable can still force a tracer on (with the default ring),
        mirroring how ``REPRO_GUARD`` arms an unconfigured guard.
        """
        configured = model.level if model is not None else "off"
        effective = effective_level(configured, TELEMETRY_ENV_VAR, TELEMETRY_LEVELS)
        if effective == "off":
            return None
        ring = model.span_ring if model is not None else DEFAULT_SPAN_RING
        return cls(effective, span_ring=ring)

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(
        self,
        name: str,
        slot: Optional[int] = None,
        hist: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator["Tracer"]:
        """Time one stage; exception-safe (the span closes on any exit).

        ``hist`` additionally feeds the wall duration into the named
        fixed-bucket latency histogram (e.g. the per-slot solve latency).
        """
        self._depth += 1
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        try:
            yield self
        finally:
            wall = time.perf_counter() - start_wall
            cpu = time.process_time() - start_cpu
            self._depth -= 1
            if hist is not None:
                self.metrics.histogram(hist).observe(wall)
            agg = self._agg.get(name)
            if agg is None:
                self._agg[name] = [1, wall, cpu]
            else:
                agg[0] += 1
                agg[1] += wall
                agg[2] += cpu
            if self._events is not None:
                event: Dict[str, Any] = {
                    "name": name,
                    "ts_us": (start_wall - self._epoch) * 1e6,
                    "dur_us": wall * 1e6,
                    "cpu_us": cpu * 1e6,
                    "pid": self._pid,
                    "tid": self._tid,
                    "depth": self._depth,
                }
                if slot is not None:
                    event["slot"] = slot
                if attrs:
                    event.update(attrs)
                self._events.append(event)
                self._appended += 1

    def span_events(self) -> List[Dict[str, Any]]:
        """The bounded ring's span events, oldest first (empty at ``light``)."""
        return [dict(event) for event in self._events] if self._events else []

    def tail(self, n: int = 64) -> List[Dict[str, Any]]:
        """The last ``n`` span events — what a crash bundle attaches."""
        if not self._events:
            return []
        events = list(self._events)
        return [dict(event) for event in events[-n:]]

    # ------------------------------------------------------------------ #
    # Metrics plumbing
    # ------------------------------------------------------------------ #
    def maybe_flush(self, slot: int) -> None:
        """Append a JSONL metrics snapshot when the flush period elapses.

        Driven by ``REPRO_METRICS_JSONL`` / ``REPRO_METRICS_EVERY`` (set
        by ``repro serve --metrics-out/--metrics-every``); a no-op when
        unconfigured.  Each line is one atomic append, so concurrent
        workers interleave whole snapshots, never partial lines.
        """
        self.slots_seen = max(self.slots_seen, slot + 1)
        if not self._flush_path or self._flush_every <= 0:
            return
        if slot + 1 < self._next_flush:
            return
        self._next_flush += self._flush_every
        from repro.telemetry.export import append_jsonl_snapshot

        append_jsonl_snapshot(
            self._flush_path,
            {"slot": slot, "pid": self._pid, "stats": self.stats()},
        )

    # ------------------------------------------------------------------ #
    # The summable stats mapping (diagnostics["telemetry"])
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """The flat dotted-key mapping; every value merges by sum."""
        out: Dict[str, float] = {"spans": 0, "tracers": 1}
        for name in sorted(self._agg):
            count, wall, cpu = self._agg[name]
            out[f"span.{name}.count"] = count
            out[f"span.{name}.wall_s"] = wall
            out[f"span.{name}.cpu_s"] = cpu
            out["spans"] += count
        if self._events is not None:
            out["span_ring_dropped"] = self._appended - len(self._events)
        out.update(self.metrics.snapshot())
        return out


#: A shared no-op context — reused so the off path allocates nothing.
_NULL_SPAN: ContextManager[None] = nullcontext()


def maybe_span(
    tracer: Optional[Tracer], name: str, slot: Optional[int] = None, **attrs: Any
) -> ContextManager[Any]:
    """``tracer.span(...)`` or a shared no-op context when telemetry is off.

    The single-call-site idiom the simulators use so the ``off`` path
    stays allocation-free and branch-cheap.
    """
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, slot=slot, **attrs)


def events_to_stats(events) -> Dict[str, float]:
    """Aggregate raw span events back into the flat stats mapping shape.

    Used where only the event ring survived (a crash bundle's attached
    trace) but a :func:`summarize_spans` profile is wanted.  Keys come
    out in the same sorted order :meth:`Tracer.stats` produces.
    """
    agg: Dict[str, List[float]] = {}
    for event in events or ():
        if not isinstance(event, Mapping):
            continue
        name = event.get("name")
        if not isinstance(name, str):
            continue
        entry = agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += float(event.get("dur_us", 0) or 0) / 1e6
        entry[2] += float(event.get("cpu_us", 0) or 0) / 1e6
    stats: Dict[str, float] = {"spans": 0, "tracers": 1 if agg else 0}
    for name in sorted(agg):
        count, wall, cpu = agg[name]
        stats[f"span.{name}.count"] = count
        stats[f"span.{name}.wall_s"] = wall
        stats[f"span.{name}.cpu_s"] = cpu
        stats["spans"] += count
    return stats


def summarize_spans(stats: Optional[Mapping[str, float]]) -> List[Dict[str, Any]]:
    """Per-span profile rows from a (merged) stats mapping, hottest first.

    Each row carries ``name``, ``count``, ``wall_s``, ``cpu_s``,
    ``mean_us`` and ``share`` (fraction of total span wall time) — the
    table behind ``repro top`` and the replay trace summary.
    """
    if not stats:
        return []
    rows: List[Dict[str, Any]] = []
    total_wall = 0.0
    for key, value in stats.items():
        if key.startswith("span.") and key.endswith(".wall_s"):
            total_wall += float(value)
    for key in stats:
        if not (key.startswith("span.") and key.endswith(".count")):
            continue
        name = key[len("span."):-len(".count")]
        count = float(stats[key])
        wall = float(stats.get(f"span.{name}.wall_s", 0.0))
        cpu = float(stats.get(f"span.{name}.cpu_s", 0.0))
        rows.append(
            {
                "name": name,
                "count": count,
                "wall_s": wall,
                "cpu_s": cpu,
                "mean_us": (wall / count * 1e6) if count else 0.0,
                "share": (wall / total_wall) if total_wall > 0 else 0.0,
            }
        )
    rows.sort(key=lambda row: (-row["wall_s"], row["name"]))
    return rows
