"""End-to-end telemetry: runs, studies, persistence, bundles, CLI."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro import api
from repro.cli import main
from repro.experiments.config import ConfigError, ExperimentConfig
from repro.guard.invariants import FORCE_BREACH_ENV_VAR, InvariantViolation
from repro.guard.recorder import build_bundle, load_bundle
from repro.guard.replay import replay_bundle
from repro.telemetry import TELEMETRY_ENV_VAR


def _scenario(level="off", **overrides):
    config = api.Scenario.tiny().config.with_overrides(
        horizon=6, trials=1, telemetry_level=level, **overrides
    )
    return api.Scenario.from_config(config, name="telemetry").with_policies("oscar")


# --------------------------------------------------------------------- #
# Config and scenario wiring
# --------------------------------------------------------------------- #
class TestConfig:
    def test_defaults_off(self):
        config = ExperimentConfig.tiny()
        assert config.telemetry is None
        assert config.with_overrides(telemetry_level="light").telemetry.span_ring == 2048

    def test_level_validates(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.tiny().with_overrides(telemetry_level="loud").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig.tiny().with_overrides(telemetry_span_ring=0).validate()

    def test_model_reflects_config(self):
        config = ExperimentConfig.tiny().with_overrides(
            telemetry_level="full", telemetry_span_ring=128
        )
        model = config.telemetry
        assert model.level == "full"
        assert model.span_ring == 128

    def test_scenario_with_telemetry(self):
        scenario = api.Scenario.tiny().with_telemetry("full", span_ring=4096)
        assert scenario.config.telemetry.level == "full"
        assert scenario.config.telemetry.span_ring == 4096

    def test_with_telemetry_default_level(self):
        assert api.Scenario.tiny().with_telemetry().config.telemetry.level == "light"


# --------------------------------------------------------------------- #
# The determinism contract: telemetry never changes results
# --------------------------------------------------------------------- #
class TestByteIdentity:
    def test_results_identical_across_levels(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        # Three policies over ten slots with the physical layer on: long
        # enough that one shifted link draw flips a saved outcome.
        base = api.Scenario.tiny().with_trials(1).with_physical(purify_rounds=1)
        summaries, trials = {}, {}
        for level in ("off", "light", "full"):
            record = api.run_scenario(base.with_config(telemetry_level=level))
            summaries[level] = record.format_summary()
            trials[level] = json.dumps(record.to_dict()["trials"], sort_keys=True)
        assert trials["off"] == trials["light"] == trials["full"]
        assert summaries["off"] == summaries["light"] == summaries["full"]

    def test_off_is_a_true_noop(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.run_scenario(_scenario("off"))
        assert record.stats("telemetry") is None
        assert record.telemetry_spans() == []
        for trial in record.trials:
            for result in trial.values():
                assert "telemetry" not in result.diagnostics
                assert "telemetry_spans" not in result.diagnostics

    def test_light_collects_stats_but_no_events(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.run_scenario(_scenario("light"))
        stats = record.stats("telemetry")
        assert stats is not None
        assert stats["span.kernel.solve.count"] > 0
        assert stats["hist.kernel.solve_s.count"] > 0
        assert record.telemetry_spans() == []

    def test_full_collects_span_events(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.run_scenario(_scenario("full"))
        spans = record.telemetry_spans()
        assert spans
        names = {span["name"] for span in spans}
        assert "kernel.solve" in names
        assert all("lineup" in span and "trial" in span for span in spans)

    def test_env_override_arms_off_config(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "full")
        record = api.run_scenario(_scenario("off"))
        assert record.telemetry_spans()

    def test_env_override_silences_full_config(self, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "off")
        record = api.run_scenario(_scenario("full"))
        assert record.stats("telemetry") is None
        assert record.telemetry_spans() == []


# --------------------------------------------------------------------- #
# One slot pipeline: every slot-driven driver observes the same stages
# --------------------------------------------------------------------- #
PIPELINE_DRIVERS = {
    "slotted": (lambda s: s.with_policies("oscar"), "link.realize"),
    "event": (lambda s: s.with_policies("oscar").with_backend(), "event.protocols"),
    "multiuser": (lambda s: s.with_user("a").with_user("b", "mf"), "link.realize"),
}


@pytest.mark.parametrize("driver", sorted(PIPELINE_DRIVERS))
def test_every_driver_observes_the_same_stages(driver, monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
    configure, realize_span = PIPELINE_DRIVERS[driver]
    scenario = configure(
        api.Scenario.tiny()
        .with_faults(edge_mtbf=20.0, mttr=3.0)
        .with_physical()
        .with_telemetry("light")
    )
    record = scenario.run()
    stats = record.stats("telemetry")
    for span in (
        "workload.candidates",
        "faults.schedule",
        "kernel.solve",
        realize_span,
        "physical.chain",
        "records.emit",
    ):
        assert stats[f"span.{span}.count"] > 0, span
    for layer in ("physical", "faults"):
        assert record.stats(layer), layer


# --------------------------------------------------------------------- #
# Persistence: telemetry is saved with the other layers
# --------------------------------------------------------------------- #
class TestPersistence:
    def test_record_round_trip_keeps_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.run_scenario(_scenario("full"))
        path = record.save(tmp_path / "run.json")
        loaded = api.RunRecord.load(path)
        assert loaded.stats("telemetry") == record.stats("telemetry")
        assert loaded.telemetry_spans() == record.telemetry_spans()

    def test_untraced_record_has_no_telemetry_section(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.run_scenario(_scenario("off"))
        payload = record.to_dict()
        assert "telemetry" not in payload
        for trial in payload["diagnostics"]:
            for saved in trial.values():
                assert "telemetry" not in saved and "telemetry_spans" not in saved


# --------------------------------------------------------------------- #
# Studies
# --------------------------------------------------------------------- #
class TestStudy:
    def test_telemetry_axis_resolves(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        config = api.Scenario.tiny().config.with_overrides(horizon=5, trials=1)
        result = (
            api.Study("telemetry-axis")
            .base(api.Scenario.from_config(config, name="t").with_policies("oscar"))
            .over("telemetry.level", ["off", "light"])
            .run()
        )
        assert len(result.points) == 2
        stats = result.stats("telemetry")
        assert stats is not None  # the light point contributed
        assert stats["spans"] > 0

    def test_study_spans_stamped_with_point(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        config = api.Scenario.tiny().config.with_overrides(
            horizon=5, trials=1, telemetry_level="full"
        )
        result = (
            api.Study("spans")
            .base(api.Scenario.from_config(config, name="t").with_policies("oscar"))
            .over("budget.total_budget", [600.0, 1000.0])
            .run()
        )
        spans = result.telemetry_spans()
        assert spans
        assert {span["point"] for span in spans} == {
            point.name for point in result.points
        }


# --------------------------------------------------------------------- #
# Crash bundles and replay
# --------------------------------------------------------------------- #
class TestBundles:
    SCENARIO = {"config": {"horizon": 5}, "policies": ["oscar"]}
    SPANS = [{"name": "kernel.solve", "dur_us": 1200.0, "cpu_us": 800.0, "ts_us": 1.0}]

    def test_telemetry_never_perturbs_the_replay_key(self):
        bare = build_bundle(self.SCENARIO, 0, "strict")
        traced = build_bundle(self.SCENARIO, 0, "strict", telemetry=self.SPANS)
        assert traced["key"] == bare["key"]
        assert traced["telemetry"]["spans"][0]["name"] == "kernel.solve"
        assert "telemetry" not in bare

    def test_breach_bundle_carries_the_active_trace(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
        monkeypatch.setenv(FORCE_BREACH_ENV_VAR, "2")
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        scenario = _scenario("full", guard_level="strict")
        with pytest.raises(InvariantViolation) as info:
            api.execute_trial(scenario, 0)
        path = info.value.bundle_path
        bundle = load_bundle(path)
        spans = bundle["telemetry"]["spans"]
        assert spans and all("name" in span for span in spans)

        # Replay re-runs the traced trial and reports the replayed trace.
        monkeypatch.delenv(FORCE_BREACH_ENV_VAR, raising=False)
        result = replay_bundle(path)
        assert result.matched, result.describe()
        assert result.extra.get("trace_spans", 0) > 0
        assert result.extra["trace_source"] == "replay"
        report = result.describe()
        assert "spans replayed" in report
        assert "hottest" in report

    def test_untraced_breach_bundle_has_no_telemetry(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
        monkeypatch.setenv(FORCE_BREACH_ENV_VAR, "2")
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        scenario = _scenario("off", guard_level="strict")
        with pytest.raises(InvariantViolation) as info:
            api.execute_trial(scenario, 0)
        bundle = load_bundle(info.value.bundle_path)
        assert "telemetry" not in bundle


# --------------------------------------------------------------------- #
# Satellite: diagnostics merge paths on legacy / empty payloads
# --------------------------------------------------------------------- #
def _v1_payload(telemetry=None):
    """A schema-1 record payload: no diagnostics, at most a telemetry section."""
    payload = api.run_scenario(_scenario("off")).to_dict()
    payload["schema_version"] = 1
    del payload["diagnostics"]
    if telemetry is not None:
        payload["telemetry"] = telemetry
    return payload


class TestDiagnosticsMergeEdges:
    def test_empty_record_accessors(self):
        record = api.RunRecord(scenario={"config": {}}, trials=[])
        for layer in api.STATS_LAYERS:
            assert record.stats(layer) is None
        assert record.telemetry_spans() == []

    def test_legacy_payload_without_telemetry_key(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        loaded = api.RunRecord.from_dict(_v1_payload())
        for layer in api.STATS_LAYERS:
            assert loaded.stats(layer) is None
        assert loaded.telemetry_spans() == []

    def test_partial_telemetry_sections_tolerated(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.RunRecord.from_dict(_v1_payload({"stats": {"spans": 2}}))
        assert record.stats("telemetry") == {"spans": 2}
        assert record.telemetry_spans() == []
        record = api.RunRecord.from_dict(_v1_payload({"spans": [{"name": "a"}]}))
        assert record.stats("telemetry") is None
        # The section rides the first result, which stamps unstamped events.
        assert record.telemetry_spans() == [{"name": "a", "lineup": "OSCAR", "trial": 0}]

    def test_malformed_telemetry_section_is_ignored(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.RunRecord.from_dict(
            _v1_payload({"stats": "broken", "spans": "broken"})
        )
        assert record.stats("telemetry") is None
        assert record.telemetry_spans() == []

    def test_every_layer_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        record = api.run_scenario(_scenario("light"))
        assert record.stats("kernel") is not None
        loaded = api.RunRecord.load(record.save(tmp_path / "r.json"))
        for layer in api.STATS_LAYERS:
            assert loaded.stats(layer) == record.stats(layer), layer


# --------------------------------------------------------------------- #
# Satellite: progress output stays watchable through a pipe
# --------------------------------------------------------------------- #
class _PipeLikeStream(io.StringIO):
    """Block-buffered stand-in: remembers what was visible at each flush."""

    def __init__(self):
        super().__init__()
        self.flushed_snapshots = []

    def flush(self):
        super().flush()
        self.flushed_snapshots.append(self.getvalue())


class TestProgressFlush:
    def test_every_progress_line_is_flushed(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        stream = _PipeLikeStream()
        api.run_scenario(_scenario("off"), observers=[api.ProgressObserver(stream=stream)])
        lines = stream.getvalue().splitlines()
        assert len(lines) >= 3  # started, trial done, completed
        # Each written line became visible by the immediately-following
        # flush — mid-run, not only when the run (or buffer) ended.
        seen_at_flush = [snap.count("\n") for snap in stream.flushed_snapshots]
        assert seen_at_flush[0] >= 1
        assert any(0 < n < len(lines) for n in seen_at_flush)
        assert seen_at_flush[-1] == len(lines)


# --------------------------------------------------------------------- #
# CLI: flags, trace export, hottest-span table, metrics
# --------------------------------------------------------------------- #
class TestCli:
    def _run_traced(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        out = tmp_path / "run.json"
        code = main([
            "compare", "--scale", "tiny", "--trials", "1",
            "--policies", "oscar", "--telemetry", "full",
            "--output", str(out),
        ])
        assert code == 0
        return out

    def test_compare_health_line_mentions_telemetry(self, capsys, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        code = main([
            "compare", "--scale", "tiny", "--trials", "1",
            "--policies", "oscar", "--telemetry", "light", "--progress",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[health]" in err and "telemetry" in err

    def test_trace_command_writes_chrome_json(self, tmp_path, capsys, monkeypatch):
        run = self._run_traced(tmp_path, monkeypatch)
        trace = tmp_path / "trace.json"
        assert main(["trace", str(run), "-o", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        assert all({"ts", "dur", "pid", "tid"} <= set(e) for e in events)
        assert "span(s)" in capsys.readouterr().out

    def test_trace_command_rejects_untraced_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        out = tmp_path / "plain.json"
        main(["compare", "--scale", "tiny", "--trials", "1",
              "--policies", "oscar", "--output", str(out)])
        assert main(["trace", str(out), "-o", str(tmp_path / "t.json")]) == 1
        assert "--telemetry full" in capsys.readouterr().err

    def test_trace_command_rejects_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2

    def test_top_command_prints_hottest_spans(self, tmp_path, capsys, monkeypatch):
        run = self._run_traced(tmp_path, monkeypatch)
        assert main(["top", str(run)]) == 0
        out = capsys.readouterr().out
        assert "Hottest spans" in out
        assert "kernel.solve" in out
        assert "%" in out

    def test_top_command_rejects_untraced_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        out = tmp_path / "plain.json"
        main(["compare", "--scale", "tiny", "--trials", "1",
              "--policies", "oscar", "--output", str(out)])
        assert main(["top", str(out)]) == 1

    def _traced_study_that_no_longer_loads(self, tmp_path, monkeypatch):
        """A traced one-point sweep whose saved config asks for a removed
        solver path (``use_kernel: false``, as ``--legacy-solver`` saved)."""
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        out = tmp_path / "study.json"
        code = main([
            "sweep", "--axis", "horizon", "--values", "4", "--scale", "tiny",
            "--trials", "1", "--policies", "oscar", "--telemetry", "full",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        payload["points"][0]["record"]["scenario"]["config"]["use_kernel"] = False
        out.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            api.Scenario.from_dict(payload["points"][0]["record"]["scenario"])
        return out

    def test_trace_reads_a_study_whose_config_no_longer_loads(
        self, tmp_path, capsys, monkeypatch
    ):
        study = self._traced_study_that_no_longer_loads(tmp_path, monkeypatch)
        trace = tmp_path / "trace.json"
        assert main(["trace", str(study), "-o", str(trace)]) == 0
        assert [e for e in json.loads(trace.read_text())["traceEvents"] if e["ph"] == "X"]

    def test_top_reads_a_study_whose_config_no_longer_loads(
        self, tmp_path, capsys, monkeypatch
    ):
        study = self._traced_study_that_no_longer_loads(tmp_path, monkeypatch)
        assert main(["top", str(study)]) == 0
        assert "kernel.solve" in capsys.readouterr().out

    def test_metrics_out_writes_prometheus(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        metrics = tmp_path / "metrics.prom"
        code = main([
            "compare", "--scale", "tiny", "--trials", "1",
            "--policies", "oscar", "--telemetry", "light",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_span_count counter" in text
        assert 'repro_span_count{span="kernel.solve"}' in text
        assert 'repro_events_total{name="kernel.solves"}' in text

    def test_serve_periodic_metrics_flush(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        metrics = tmp_path / "serve.prom"
        code = main([
            "serve", "--scale", "tiny", "--trials", "1",
            "--arrival-rate", "1.0", "--telemetry", "light",
            "--metrics-out", str(metrics), "--metrics-every", "2",
        ])
        assert code == 0
        assert metrics.exists()
        jsonl = tmp_path / "serve.prom.jsonl"
        assert jsonl.exists()
        entries = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert entries
        assert all("slot" in entry and "stats" in entry for entry in entries)
        # The env override is cleaned up after the serve command.
        assert "REPRO_METRICS_JSONL" not in os.environ
