"""The metrics registry: fixed-bucket latency histograms.

Each :class:`~repro.telemetry.tracer.Tracer` owns one
:class:`MetricsRegistry`.  Spans register histograms lazily by name
(``registry.histogram("kernel.solve").observe(seconds)``) and the registry
snapshots into a **flat dotted-key mapping** (``hist.<name>.le_<bound>``,
``hist.<name>.sum``, ``hist.<name>.count``) whose values are all summable
numbers.  That shape is deliberate: it makes cross-worker and cross-trial
aggregation a plain key-wise sum, so merged metrics are bit-identical for
any worker layout (see :func:`repro.analysis.stats.merge_stat_mappings`).
Layer counters are not kept here: they travel in the stats channel (each
result's ``diagnostics``).

Instruments draw no randomness and never raise out of the hot path; a
histogram's bucket bounds are fixed at registration, Prometheus-style
(cumulative ``le`` buckets, so both per-bucket and cumulative sums merge
exactly).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
]

#: Default histogram bounds (seconds) — tuned for per-slot stage latencies,
#: which range from ~10 µs (bookkeeping) to ~1 s (a heavy solve).
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
)


class Histogram:
    """A fixed-bucket histogram with cumulative (Prometheus ``le``) buckets."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered or list(ordered) != sorted(ordered):
            raise ValueError(f"histogram bounds must be sorted and non-empty, got {bounds!r}")
        self.bounds = ordered
        # One slot per finite bound plus the +inf overflow bucket.
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1


class MetricsRegistry:
    """Lazily named histograms plus a flat, summable snapshot."""

    __slots__ = ("_histograms",)

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def snapshot(self) -> Dict[str, float]:
        """The flat dotted-key mapping (iterated in sorted-name order)."""
        out: Dict[str, float] = {}
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            cumulative = 0
            for bound, bucket in zip(histogram.bounds, histogram.counts):
                cumulative += bucket
                out[f"hist.{name}.le_{bound:g}"] = cumulative
            out[f"hist.{name}.le_inf"] = cumulative + histogram.counts[-1]
            out[f"hist.{name}.sum"] = histogram.total
            out[f"hist.{name}.count"] = histogram.count
        return out
