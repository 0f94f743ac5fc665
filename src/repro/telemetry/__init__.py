"""Observability: span tracing, metrics, and profile exporters (PR 10).

The telemetry subsystem is the cross-cutting tenth layer of the pipeline
(workload → serving → solver kernel → link layer → physical layer →
timing/event layer → faults → guard → records, all observed by
telemetry).  It mirrors the guard's hard determinism contract: the
``off`` level builds no recorder, draws no randomness, and leaves every
produced table byte-identical; ``light`` aggregates per-span profiles
and metrics; ``full`` additionally keeps a bounded ring of pid/tid
stamped span events for Chrome-trace/Perfetto export and crash-bundle
attachment.  See :mod:`repro.telemetry.tracer` for the level semantics.
"""

from repro.telemetry.export import (
    append_jsonl_snapshot,
    render_prometheus,
    spans_to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracer import (
    DEFAULT_SPAN_RING,
    METRICS_EVERY_ENV_VAR,
    METRICS_JSONL_ENV_VAR,
    TELEMETRY_ENV_VAR,
    TELEMETRY_LEVELS,
    TelemetryModel,
    Tracer,
    events_to_stats,
    maybe_span,
    summarize_spans,
)

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SPAN_RING",
    "METRICS_EVERY_ENV_VAR",
    "METRICS_JSONL_ENV_VAR",
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_LEVELS",
    "Histogram",
    "MetricsRegistry",
    "TelemetryModel",
    "Tracer",
    "append_jsonl_snapshot",
    "events_to_stats",
    "maybe_span",
    "render_prometheus",
    "spans_to_chrome_trace",
    "summarize_spans",
    "write_chrome_trace",
]
