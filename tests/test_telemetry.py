"""Unit tests for the telemetry subsystem (tracer, metrics, exporters)."""

import json

import pytest

from repro.analysis.stats import merge_stat_mappings
from repro.telemetry import (
    DEFAULT_SPAN_RING,
    METRICS_EVERY_ENV_VAR,
    METRICS_JSONL_ENV_VAR,
    TELEMETRY_ENV_VAR,
    TELEMETRY_LEVELS,
    Histogram,
    MetricsRegistry,
    TelemetryModel,
    Tracer,
    append_jsonl_snapshot,
    events_to_stats,
    maybe_span,
    render_prometheus,
    spans_to_chrome_trace,
    summarize_spans,
    write_chrome_trace,
)
from repro.utils.validation import effective_level


class TestLevels:
    def test_level_constants(self):
        assert TELEMETRY_LEVELS == ("off", "light", "full")

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "full")
        assert effective_level("off", TELEMETRY_ENV_VAR, TELEMETRY_LEVELS) == "full"
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "off")
        assert effective_level("full", TELEMETRY_ENV_VAR, TELEMETRY_LEVELS) == "off"

    def test_env_unset_keeps_configured(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        assert effective_level("light", TELEMETRY_ENV_VAR, TELEMETRY_LEVELS) == "light"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "verbose")
        with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
            effective_level("off", TELEMETRY_ENV_VAR, TELEMETRY_LEVELS)

    def test_model_validates(self):
        with pytest.raises(ValueError, match="telemetry level"):
            TelemetryModel(level="loud")
        with pytest.raises(ValueError, match="telemetry level"):
            TelemetryModel(level="off")  # off is no model: config.telemetry is None
        with pytest.raises(ValueError, match="span_ring"):
            TelemetryModel(span_ring=0)

    def test_build_off_returns_none(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        assert Tracer.build(None) is None

    def test_build_env_arms_unconfigured_tracer(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "full")
        tracer = Tracer.build(None)
        assert tracer is not None
        assert tracer.level == "full"
        assert tracer.span_ring == DEFAULT_SPAN_RING

    def test_tracer_rejects_off(self):
        with pytest.raises(ValueError):
            Tracer("off")


class TestSpans:
    def test_nested_spans_aggregate(self):
        tracer = Tracer("light")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        stats = tracer.stats()
        assert stats["span.outer.count"] == 1
        assert stats["span.inner.count"] == 2
        assert stats["spans"] == 3
        assert stats["tracers"] == 1
        assert stats["span.outer.wall_s"] >= stats["span.inner.wall_s"]

    def test_span_is_exception_safe(self):
        tracer = Tracer("full")
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        stats = tracer.stats()
        assert stats["span.doomed.count"] == 1
        assert len(tracer.span_events()) == 1

    def test_light_level_keeps_no_events(self):
        tracer = Tracer("light")
        with tracer.span("a"):
            pass
        assert tracer.span_events() == []
        assert tracer.tail() == []
        assert "span_ring_dropped" not in tracer.stats()

    def test_full_level_events_carry_identity(self):
        tracer = Tracer("full")
        with tracer.span("stage", slot=7, lineup="OSCAR"):
            pass
        (event,) = tracer.span_events()
        assert event["name"] == "stage"
        assert event["slot"] == 7
        assert event["lineup"] == "OSCAR"
        assert event["dur_us"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["depth"] == 0

    def test_nested_depth_recorded(self):
        tracer = Tracer("full")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {e["name"]: e for e in tracer.span_events()}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1

    def test_ring_is_bounded(self):
        tracer = Tracer("full", span_ring=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        events = tracer.span_events()
        assert len(events) == 4
        assert [e["name"] for e in events] == ["s6", "s7", "s8", "s9"]
        assert tracer.stats()["span_ring_dropped"] == 6

    def test_tail_returns_last_n(self):
        tracer = Tracer("full")
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        tail = tracer.tail(3)
        assert [e["name"] for e in tail] == ["s7", "s8", "s9"]

    def test_hist_parameter_feeds_histogram(self):
        tracer = Tracer("light")
        with tracer.span("solve", hist="solve_s"):
            pass
        stats = tracer.stats()
        assert stats["hist.solve_s.count"] == 1
        assert stats["hist.solve_s.le_inf"] == 1

    def test_maybe_span_none_is_shared_noop(self):
        first = maybe_span(None, "anything")
        second = maybe_span(None, "else")
        assert first is second
        with first:
            pass  # usable as a context manager

    def test_maybe_span_with_tracer(self):
        tracer = Tracer("light")
        with maybe_span(tracer, "stage", slot=3):
            pass
        assert tracer.stats()["span.stage.count"] == 1


class TestMetrics:
    def test_histogram_identity_is_memoized(self):
        registry = MetricsRegistry()
        assert registry.histogram("z") is registry.histogram("z")
        assert isinstance(registry.histogram("z"), Histogram)

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        assert snapshot["hist.lat.le_1"] == 1
        assert snapshot["hist.lat.le_10"] == 2
        assert snapshot["hist.lat.le_inf"] == 3
        assert snapshot["hist.lat.count"] == 3
        assert snapshot["hist.lat.sum"] == pytest.approx(55.5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))


class TestMerge:
    def test_merge_sums_keywise(self):
        merged = merge_stat_mappings(
            [{"spans": 2, "span.a.count": 2}, {"spans": 1, "span.b.count": 1}]
        )
        assert merged == {"spans": 3, "span.a.count": 2, "span.b.count": 1}

    def test_merge_skips_non_mappings(self):
        assert merge_stat_mappings([None, "x", 3]) is None
        merged = merge_stat_mappings([None, {"spans": 1}])
        assert merged == {"spans": 1}

    def test_merge_is_order_deterministic(self):
        mappings = [
            {"a": 0.1, "b": 0.2, "c": 0.3},
            {"c": 0.4, "a": 0.5},
            {"b": 0.6},
        ]
        forward = merge_stat_mappings(mappings)
        backward = merge_stat_mappings(list(reversed(mappings)))
        # Each key sums in mapping order; the totals are exactly equal for
        # any input ordering here.
        assert forward == pytest.approx(backward)

    def test_events_to_stats(self):
        events = [
            {"name": "a", "dur_us": 1000.0, "cpu_us": 500.0},
            {"name": "a", "dur_us": 3000.0, "cpu_us": 100.0},
            {"name": "b", "dur_us": 2000.0, "cpu_us": 0.0},
            {"noname": True},
        ]
        stats = events_to_stats(events)
        assert stats["spans"] == 3
        assert stats["span.a.count"] == 2
        assert stats["span.a.wall_s"] == pytest.approx(0.004)
        assert stats["span.b.wall_s"] == pytest.approx(0.002)

    def test_events_to_stats_empty(self):
        stats = events_to_stats([])
        assert stats["spans"] == 0
        assert stats["tracers"] == 0

    def test_summarize_spans_orders_by_wall(self):
        stats = {
            "span.fast.count": 10, "span.fast.wall_s": 0.1, "span.fast.cpu_s": 0.1,
            "span.slow.count": 2, "span.slow.wall_s": 0.9, "span.slow.cpu_s": 0.8,
        }
        rows = summarize_spans(stats)
        assert [row["name"] for row in rows] == ["slow", "fast"]
        assert rows[0]["share"] == pytest.approx(0.9)
        assert rows[0]["mean_us"] == pytest.approx(450_000.0)

    def test_summarize_spans_empty(self):
        assert summarize_spans(None) == []
        assert summarize_spans({}) == []


class TestChromeTrace:
    def _spans(self):
        return [
            {"name": "solve", "ts_us": 0.0, "dur_us": 10.0, "pid": 1, "tid": 2,
             "slot": 3, "depth": 0},
            {"name": "merge", "ts_us": 5.0, "dur_us": 2.0, "pid": 4, "tid": 5,
             "lineup": "OSCAR", "trial": 1},
        ]

    def test_schema(self):
        doc = spans_to_chrome_trace(self._spans(), label="run")
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["label"] == "run"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        # process_name per pid + thread_name per (pid, tid) lane.
        assert {m["name"] for m in metadata} == {"process_name", "thread_name"}
        solve = next(e for e in complete if e["name"] == "solve")
        assert solve["args"]["slot"] == 3
        assert solve["pid"] == 1 and solve["tid"] == 2

    def test_multi_pid_lanes(self):
        doc = spans_to_chrome_trace(self._spans())
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 4}
        process_names = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert len(process_names) == 2

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._spans(), str(path))
        assert count == 2
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestPrometheus:
    def test_empty_stats(self):
        text = render_prometheus(None)
        assert text.startswith("# no telemetry stats")

    def test_families(self):
        stats = {
            "spans": 3,
            "span.kernel.solve.count": 3,
            "span.kernel.solve.wall_s": 0.5,
            "span.kernel.solve.cpu_s": 0.4,
            "counter.kernel.solves": 30,
            "gauge.depth": 2,
            "hist.solve_s.le_0.001": 1,
            "hist.solve_s.le_0.05": 2,
            "hist.solve_s.le_inf": 3,
            "hist.solve_s.sum": 0.25,
            "hist.solve_s.count": 3,
        }
        text = render_prometheus(stats)
        assert '# TYPE repro_span_count counter' in text
        assert 'repro_span_count{span="kernel.solve"} 3' in text
        assert 'repro_events_total{name="kernel.solves"} 30' in text
        assert 'repro_gauge{name="depth"} 2' in text
        assert 'repro_latency_seconds_bucket{name="solve_s",le="0.001"} 1' in text
        assert 'repro_latency_seconds_bucket{name="solve_s",le="+Inf"} 3' in text
        assert 'repro_latency_seconds_sum{name="solve_s"} 0.25' in text
        assert 'repro_latency_seconds_count{name="solve_s"} 3' in text
        assert 'repro_spans 3' in text

    def test_bucket_lines_sorted_numerically(self):
        stats = {
            "hist.lag.le_0": 1,
            "hist.lag.le_2": 2,
            "hist.lag.le_16": 3,
            "hist.lag.le_inf": 4,
            "hist.lag.sum": 10.0,
            "hist.lag.count": 4,
        }
        lines = [
            line for line in render_prometheus(stats).splitlines()
            if not line.startswith("#")
        ]
        bounds = [line.split('le="')[1].split('"')[0]
                  for line in lines if "_bucket" in line]
        assert bounds == ["0", "2", "16", "+Inf"]
        # sum and count render after the buckets.
        assert lines[-2].startswith("repro_latency_seconds_sum")
        assert lines[-1].startswith("repro_latency_seconds_count")

    def test_every_line_parses(self):
        tracer = Tracer("light")
        with tracer.span("a.b", hist="lat"):
            pass
        # Layer counters reach the exposition from the stats channel, as
        # ``repro --metrics-out`` renders them.
        text = render_prometheus({**tracer.stats(), "counter.kernel.solves": 3})
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # the sample value is numeric
            metric = name_part.split("{", 1)[0]
            assert metric.replace("_", "a").isalnum()

    def test_jsonl_snapshot_appends_lines(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        append_jsonl_snapshot(str(path), {"slot": 1, "stats": {"spans": 2}})
        append_jsonl_snapshot(str(path), {"slot": 2, "stats": {"spans": 4}})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["slot"] == 2


class TestPeriodicFlush:
    def test_maybe_flush_writes_every_n_slots(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.jsonl"
        monkeypatch.setenv(METRICS_JSONL_ENV_VAR, str(path))
        monkeypatch.setenv(METRICS_EVERY_ENV_VAR, "2")
        tracer = Tracer("light")
        for slot in range(6):
            with tracer.span("s"):
                pass
            tracer.maybe_flush(slot)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["slot"] for entry in lines] == [1, 3, 5]
        assert lines[-1]["stats"]["span.s.count"] == 6
        assert tracer.slots_seen == 6

    def test_unconfigured_flush_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv(METRICS_JSONL_ENV_VAR, raising=False)
        monkeypatch.delenv(METRICS_EVERY_ENV_VAR, raising=False)
        tracer = Tracer("light")
        tracer.maybe_flush(0)
        assert tracer.slots_seen == 1

    def test_invalid_flush_period_raises(self, monkeypatch):
        monkeypatch.setenv(METRICS_JSONL_ENV_VAR, "/tmp/x.jsonl")
        monkeypatch.setenv(METRICS_EVERY_ENV_VAR, "often")
        with pytest.raises(ValueError, match="REPRO_METRICS_EVERY"):
            Tracer("light")
