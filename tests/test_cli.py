"""Tests for the command-line interface (repro.cli / python -m repro)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import figures


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_names_are_the_specs_and_ablations(self):
        for name in (*figures.FIGURES, "ablations"):
            assert build_parser().parse_args(["figure", name]).name == name

    def test_scale_choices(self):
        arguments = build_parser().parse_args(["info", "--scale", "tiny"])
        assert arguments.scale == "tiny"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--scale", "huge"])


class TestInfoCommand:
    def test_prints_configuration(self, capsys):
        assert main(["info", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "num_nodes" in output
        assert "per-slot budget" in output

    def test_overrides_reflected(self, capsys):
        main(["info", "--scale", "tiny", "--trials", "3", "--seed", "99"])
        output = capsys.readouterr().out
        assert "3" in output
        assert "99" in output


class TestCompareCommand:
    def test_runs_and_prints_summary(self, capsys):
        assert main(["compare", "--scale", "tiny", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "OSCAR" in output and "MF" in output

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "comparison.json"
        main(["compare", "--scale", "tiny", "--trials", "1", "--output", str(target)])
        assert target.exists()
        payload = json.loads(target.read_text())
        assert "trials" in payload

    def test_json_output(self, capsys):
        assert main(["compare", "--scale", "tiny", "--trials", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "comparison"
        assert len(payload["trials"]) == 1
        assert "OSCAR" in payload["trials"][0]


class TestSweepCommand:
    def test_runs_and_prints_axis_table(self, capsys):
        assert main([
            "sweep", "--scale", "tiny", "--trials", "1",
            "--axis", "budget.total_budget", "--values", "150", "250",
            "--policies", "oscar",
        ]) == 0
        output = capsys.readouterr().out
        assert "total_budget" in output
        assert "OSCAR.average_success_rate" in output
        assert "2 point(s)" in output

    def test_json_payload(self, capsys):
        assert main([
            "sweep", "--scale", "tiny", "--trials", "1",
            "--axis", "budget.total_budget", "--values", "150", "250",
            "--policies", "oscar", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "sweep/tiny"
        assert [axis["label"] for axis in payload["axes"]] == ["total_budget"]
        assert len(payload["points"]) == 2
        assert payload["points"][0]["record"]["kind"] == "comparison"

    def test_store_resume(self, tmp_path, capsys):
        arguments = [
            "sweep", "--scale", "tiny", "--trials", "1",
            "--axis", "budget.total_budget", "--values", "150", "250",
            "--policies", "oscar", "--store", str(tmp_path),
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert "0 from store" in first
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert "2 from store" in second and "0 unit(s)" in second

    def test_mismatched_axes_and_values(self, capsys):
        code = main([
            "sweep", "--scale", "tiny",
            "--axis", "budget.total_budget",
            "--axis", "workload.horizon", "--values", "150",
        ])
        assert code == 2
        assert "one --values group per --axis" in capsys.readouterr().err

    def test_requires_an_axis(self, capsys):
        assert main(["sweep", "--scale", "tiny"]) == 2
        assert "at least one axis" in capsys.readouterr().err

    def test_unknown_metric_rejected_before_running(self, capsys):
        code = main([
            "sweep", "--scale", "tiny", "--axis", "budget.total_budget",
            "--values", "150", "--metrics", "sucess_rate",
        ])
        assert code == 2
        assert "unknown metric(s) sucess_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["compare"], ["sweep", "--axis", "horizon", "--values", "4"],
         ["figure", "fig3"], ["info"], ["serve"]],
    )
    def test_invalid_flag_value_is_a_clean_error(self, command, capsys):
        code = main(command + ["--scale", "tiny", "--swap-p", "2"])
        assert code == 2
        assert "error: swap_success must be in [0.0, 1.0], got 2.0" in capsys.readouterr().err

    def test_unknown_axis_path(self, capsys):
        code = main([
            "sweep", "--scale", "tiny", "--axis", "bogus", "--values", "1",
        ])
        assert code == 2
        assert "unknown config path 'bogus'" in capsys.readouterr().err

    def test_topology_axis(self, capsys):
        assert main([
            "sweep", "--scale", "tiny", "--trials", "1",
            "--topologies", "ring", "line", "--policies", "oscar",
        ]) == 0
        output = capsys.readouterr().out
        assert "topology" in output and "ring" in output and "line" in output


class TestFigureCommand:
    def test_fig8_tiny(self, capsys):
        assert main(["figure", "fig8", "--scale", "tiny", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 8" in output

    def test_stdout_is_exactly_the_report(self, capsys):
        # The timing line goes to stderr, so two runs' stdout can be diffed.
        assert main(["figure", "fig8", "--scale", "tiny", "--trials", "1"]) == 0
        captured = capsys.readouterr()
        golden = Path(__file__).parent / "data" / "golden" / "fig8.txt"
        assert captured.out == golden.read_text() + "\n"
        assert "[fig8 at scale=tiny in" in captured.err

    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "nested" / "fig8.txt"
        main(["figure", "fig8", "--scale", "tiny", "--trials", "1", "--output", str(target)])
        captured = capsys.readouterr()
        # The file holds the printed report, ending in one newline.
        text = target.read_text()
        assert text == captured.out.split("[report written to")[0]
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert "Fig. 8" in text

    def test_ablations_command(self, capsys):
        assert main(["figure", "ablations", "--scale", "tiny", "--trials", "1"]) == 0
        output = capsys.readouterr().out
        assert "Ablation" in output

    def test_json_output(self, capsys):
        assert main(["figure", "fig8", "--scale", "tiny", "--trials", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "fig8"
        assert payload["study"]["name"] == "fig8"
        assert len(payload["study"]["points"]) == len(payload["q0_values"])


class TestFigureSweptFlags:
    """A flag that sets a path the figure sweeps would be overwritten at every
    point, so the figure refuses it; other flags of the same layer act."""

    @pytest.mark.parametrize(
        "command,path",
        [
            ("fig10 --signaling-latency 0.01", "timing.signaling_latency_s"),
            ("fig10 --backend slotted", "timing.backend"),
            ("fig11 --edge-mtbf 10", "faults.edge_mtbf"),
            ("fig11 --fault-blind", "faults.aware"),
        ],
    )
    def test_swept_flag_is_refused(self, command, path, capsys):
        name, flag, *_ = command.split()
        assert main(["figure", *command.split(), "--scale", "tiny", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} sets {path}, which {name} sweeps" in captured.err

    @pytest.mark.parametrize("command", ["fig10 --purify-rounds 1", "fig11 --mttr 5"])
    def test_other_layer_flags_still_run(self, command, capsys):
        name = command.split()[0]
        assert main(["figure", *command.split(), "--scale", "tiny", "--trials", "1"]) == 0
        assert f"Fig. {name[3:]}(a)" in capsys.readouterr().out


class TestServeCommand:
    def test_runs_and_prints_serving_tables(self, capsys):
        assert main(["serve", "--scale", "tiny", "--trials", "1",
                     "--arrival-rate", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "Serving run" in output
        assert "requests served" in output
        assert "Jain fairness" in output

    def test_merge_window_does_not_change_stdout(self, capsys):
        # Always-admit never reads the stale state, so the window is moot.
        base = ["serve", "--scale", "tiny", "--trials", "1",
                "--arrival-rate", "1.0", "--admission", "always"]
        assert main(base + ["--merge-every", "1"]) == 0
        every_slot = capsys.readouterr().out
        assert main(base + ["--merge-every", "5"]) == 0
        windowed = capsys.readouterr().out
        assert every_slot == windowed

    @pytest.mark.parametrize("flag", ["--arrival-rate", "--session-rate"])
    def test_run_without_requests_reports_fair(self, capsys, flag):
        assert main(["serve", "--scale", "tiny", "--trials", "1", flag, "0"]) == 0
        output = capsys.readouterr().out
        assert "requests arrived" in output
        assert "Jain fairness" in output

    def test_health_line_on_stderr(self, capsys):
        assert main(["serve", "--scale", "tiny", "--trials", "1",
                     "--arrival-rate", "1.0", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[health] serving" in captured.err
        assert "[health]" not in captured.out

    def test_json_output(self, capsys):
        assert main(["serve", "--scale", "tiny", "--trials", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "serving"

    def test_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "serving.json"
        assert main(["serve", "--scale", "tiny", "--trials", "1",
                     "--output", str(target)]) == 0
        assert json.loads(target.read_text())["kind"] == "serving"

    def test_event_backend_rejected_with_targeted_error(self, capsys):
        assert main(["serve", "--scale", "tiny", "--trials", "1",
                     "--backend", "event"]) == 2
        error = capsys.readouterr().err
        assert "backend='event'" in error
        assert "slotted" in error

    def test_unknown_admission_rejected(self, capsys):
        assert main(["serve", "--scale", "tiny", "--trials", "1",
                     "--admission", "front-door"]) == 2
        assert "admission" in capsys.readouterr().err


def test_importing_the_cli_does_not_load_scipy():
    # scipy serves only the oracle and uncommon confidence levels; the run
    # path and its imports must not pay for it.
    code = "import sys, repro.cli; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert result.stdout.strip() == "False"


def test_importing_the_api_loads_no_figure_code():
    # The figures and ablations are loaded by the CLI and the examples that
    # run them, not by every process that imports the library.
    code = (
        "import sys; from repro import api; "
        "print(sorted(m for m in ('repro.experiments.figures', "
        "'repro.experiments.ablations') if m in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert result.stdout.strip() == "[]"
