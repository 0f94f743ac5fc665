"""Tests for the fault-injection CLI surface and the fig11 resilience study."""

import pytest

from repro.cli import (
    _config_from_args,
    _fault_stats_fragment,
    _render_health_line,
    build_parser,
    main,
)
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig, with_physical_defaults


def parse(*argv):
    return build_parser().parse_args(list(argv))


class TestFaultFlags:
    def test_disabled_by_default(self):
        config = _config_from_args(parse("info", "--scale", "tiny"))
        assert config.faults is None

    def test_faults_flag_enables(self):
        config = _config_from_args(parse("info", "--scale", "tiny", "--faults"))
        assert config.faults is not None
        assert config.faults.aware

    def test_parameters_imply_faults(self):
        config = _config_from_args(
            parse("info", "--scale", "tiny", "--edge-mtbf", "30", "--mttr", "4")
        )
        assert config.faults is not None
        assert config.faults.edge_mtbf == 30.0
        assert config.faults.mttr == 4.0

    def test_node_mtbf_implies_faults(self):
        config = _config_from_args(parse("info", "--scale", "tiny", "--node-mtbf", "50"))
        assert config.faults is not None
        assert config.faults.node_mtbf == 50.0

    def test_fault_blind_disables_awareness(self):
        config = _config_from_args(parse("info", "--scale", "tiny", "--fault-blind"))
        assert config.faults is not None
        assert not config.faults.aware

    def test_solve_deadline_is_independent_of_faults(self):
        config = _config_from_args(
            parse("info", "--scale", "tiny", "--solve-deadline", "12")
        )
        assert config.solve_deadline == 12
        assert config.faults is None

    def test_checkpoint_flag_accepted(self):
        assert parse("compare", "--checkpoint", "/tmp/c.json").checkpoint == "/tmp/c.json"
        assert parse("serve", "--checkpoint", "/tmp/c.json").checkpoint == "/tmp/c.json"

    def test_fig11_registered(self):
        assert parse("figure", "fig11").name == "fig11"


class TestHealthLine:
    def test_fragment_empty_without_stats(self):
        assert _fault_stats_fragment(None) is None
        assert _fault_stats_fragment({}) is None

    def test_fragment_content(self):
        fragment = _fault_stats_fragment(
            {
                "element_slots": 200,
                "down_element_slots": 10,
                "node_failures": 1,
                "edge_failures": 4,
                "requests_unservable": 3,
                "requests_interrupted": 2,
            }
        )
        assert "0.950 availability" in fragment
        assert "1 node/4 edge outage(s)" in fragment
        assert "3 unservable/2 interrupted" in fragment

    def test_health_line_includes_faults(self):
        line = _render_health_line({"faults": {"element_slots": 10}})
        assert line.startswith("[health] faults")


class TestCompareWithFaults:
    def test_end_to_end_with_health_line(self, capsys):
        code = main(
            [
                "compare", "--scale", "tiny", "--trials", "1",
                "--edge-mtbf", "25", "--mttr", "4", "--progress",
                "--policies", "oscar",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "OSCAR" in captured.out
        assert "faults" in captured.err


class TestFig11:
    def test_mtbf_for_rate(self):
        assert figures.mtbf_for_rate(0.0) == 0.0
        assert figures.mtbf_for_rate(0.02) == pytest.approx(50.0)

    def test_fig11_config_enables_faults_and_physical(self):
        config = with_physical_defaults(ExperimentConfig.tiny(), figures.FIGURES["fig11"].layers)
        assert config.faults is not None
        assert config.physical is not None
        assert config.physical.swap_success == pytest.approx(0.98)

    def test_fig11_config_respects_pinned_fields(self):
        base = ExperimentConfig.tiny().with_overrides(physical_swap_success=0.5)
        config = with_physical_defaults(
            base, figures.FIGURES["fig11"].layers, explicit=["physical_swap_success"]
        )
        assert config.physical.swap_success == pytest.approx(0.5)
        assert config.physical.cutoff_fidelity == pytest.approx(0.25)

    def test_build_study_axes(self):
        study = figures.build_study("fig11", ExperimentConfig.tiny(), [0.0, 0.02])
        labels = [axis.label for axis in study._axes]
        assert labels == ["aware", "edge_mtbf"]

    def test_tiny_run_zero_rate_modes_coincide(self):
        result = figures.run("fig11", ExperimentConfig.tiny(), values=[0.0, 0.05], trials=1)
        assert result.data["outage_rates"] == [0.0, 0.05]
        throughput = result.data["throughput"]
        assert set(throughput) == {"OSCAR (aware)", "OSCAR (blind)"}
        # With no outages the degradation mode cannot matter.
        assert throughput["OSCAR (aware)"][0] == throughput["OSCAR (blind)"][0]
        fidelity = result.data["delivered_fidelity"]
        assert fidelity["OSCAR (aware)"][0] == fidelity["OSCAR (blind)"][0]
        payload = result.to_dict()
        assert payload["figure"] == "fig11"
        assert payload["fault_stats"]["slots"] > 0

    def test_format_tables_mentions_both_panels(self):
        result = figures.run("fig11", ExperimentConfig.tiny(), values=[0.0], trials=1)
        report = result.format_tables()
        assert "Fig. 11(a)" in report
        assert "Fig. 11(b)" in report
