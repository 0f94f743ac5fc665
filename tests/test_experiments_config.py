"""Tests for repro.experiments.config and repro.experiments.reporting."""

import pytest

from repro.api.registry import default_registry
from repro.core.baselines import MyopicAdaptivePolicy, MyopicFixedPolicy
from repro.core.oscar import OscarPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series_table, format_summary, format_table


class TestExperimentConfigDefaults:
    def test_paper_values(self):
        config = ExperimentConfig.paper()
        assert config.num_nodes == 20
        assert config.horizon == 200
        assert config.total_budget == 5000.0
        assert config.trade_off_v == 2500.0
        assert config.initial_queue == 10.0
        assert config.gamma == 500.0
        assert config.attempt_success == 2.0e-4
        assert config.attempts_per_slot == 4000
        assert (config.min_pairs, config.max_pairs) == (1, 5)
        assert (config.qubit_capacity_min, config.qubit_capacity_max) == (10, 16)
        assert (config.channel_capacity_min, config.channel_capacity_max) == (5, 8)
        assert config.trials == 5

    def test_per_slot_budget(self):
        assert ExperimentConfig.paper().per_slot_budget == pytest.approx(25.0)

    def test_small_and_tiny_presets_shrink_work(self):
        paper = ExperimentConfig.paper()
        small = ExperimentConfig.small()
        tiny = ExperimentConfig.tiny()
        assert small.horizon < paper.horizon and tiny.horizon < small.horizon
        assert small.num_nodes < paper.num_nodes
        # Per-slot budget stays comparable so the budget remains binding.
        assert small.per_slot_budget == pytest.approx(paper.per_slot_budget)

    def test_with_overrides(self):
        config = ExperimentConfig.tiny().with_overrides(total_budget=999.0)
        assert config.total_budget == 999.0
        assert ExperimentConfig.tiny().total_budget != 999.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ExperimentConfig(horizon=0)

    def test_describe_is_flat(self):
        description = ExperimentConfig.tiny().describe()
        assert description["num_nodes"] == 8
        assert "total_budget" in description


class TestExperimentConfigFactories:
    def test_build_graph_properties(self):
        config = ExperimentConfig.tiny()
        graph = config.build_graph(seed=1)
        assert len(graph) == config.num_nodes
        assert graph.is_connected()
        assert graph.attempts_per_slot == config.attempts_per_slot

    def test_build_graph_deterministic(self):
        config = ExperimentConfig.tiny()
        assert config.build_graph(seed=5).edges == config.build_graph(seed=5).edges

    def test_build_trace_matches_horizon(self):
        config = ExperimentConfig.tiny()
        graph = config.build_graph(seed=1)
        trace = config.build_trace(graph, seed=2)
        assert trace.horizon == config.horizon
        assert trace.max_requests_per_slot() <= config.max_pairs

    def test_policy_factories_use_config(self):
        config = ExperimentConfig.tiny()
        oscar = default_registry.make("oscar", config)
        assert isinstance(oscar, OscarPolicy)
        assert oscar.total_budget == config.total_budget
        assert oscar.trade_off_v == config.trade_off_v
        mf = default_registry.make("myopic-fixed", config)
        ma = default_registry.make("myopic-adaptive", config)
        assert isinstance(mf, MyopicFixedPolicy) and isinstance(ma, MyopicAdaptivePolicy)
        assert mf.horizon == config.horizon

    def test_policy_overrides(self):
        config = ExperimentConfig.tiny()
        oscar = default_registry.make("oscar", config, trade_off_v=77.0)
        assert oscar.trade_off_v == 77.0

    def test_default_policies_line_up(self):
        config = ExperimentConfig.tiny()
        names = [default_registry.make(name, config).name for name in ("oscar", "ma", "mf")]
        assert names == ["OSCAR", "MA", "MF"]

    def test_extra_policy_factories(self):
        config = ExperimentConfig.tiny()
        assert default_registry.make("unconstrained", config).name == "Unconstrained"
        assert default_registry.make("shortest-uniform", config).name == "ShortestUniform"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.34567], ["xyz", 5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_series_table(self):
        text = format_series_table("x", [1, 2], {"s1": [0.1, 0.2], "s2": [0.3, 0.4]})
        assert "s1" in text and "s2" in text
        assert text.count("\n") >= 3

    def test_format_series_table_handles_short_series(self):
        text = format_series_table("x", [1, 2, 3], {"s": [0.1]})
        assert "nan" in text

    def test_format_summary(self):
        summary = {"OSCAR": {"m": 1.0}, "MF": {"m": 0.5}}
        text = format_summary(summary, title="S")
        assert "OSCAR" in text and "MF" in text

    def test_format_summary_empty(self):
        assert format_summary({}, title="S") == "S"

    def test_large_numbers_use_thousands_separator(self):
        text = format_table(["v"], [[12345.6]])
        assert "12,345.6" in text
