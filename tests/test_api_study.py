"""Tests for the declarative study layer (repro.api.study)."""

import json
import math
from pathlib import Path

import pytest

from repro import api
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig, resolve_path


def tiny_base(horizon=4, trials=1, seed=11, policies=("oscar", "ma")):
    return (
        api.Scenario.tiny("study-test")
        .with_workload(horizon=horizon)
        .with_trials(trials)
        .with_seed(seed)
        .with_policies(*policies)
    )


def trials_payload(record):
    """The equality-sensitive part of a RunRecord as canonical JSON."""
    payload = record.to_dict()
    return json.dumps(
        {"trials": payload["trials"], "provider_trials": payload["provider_trials"]},
        sort_keys=True,
    )


def study_payload(result):
    return json.dumps([trials_payload(r) for r in result.records], sort_keys=True)


class TestAxisResolution:
    def test_bare_and_dotted_paths(self):
        assert resolve_path("horizon") == "horizon"
        assert resolve_path("budget.total_budget") == "total_budget"
        assert resolve_path("topology.num_nodes") == "num_nodes"
        assert resolve_path("workload.horizon") == "horizon"
        assert resolve_path("config.base_seed") == "base_seed"

    def test_topology_kind_alias(self):
        assert resolve_path("topology.kind") == "topology_kind"

    def test_wrong_group_rejected(self):
        with pytest.raises(ValueError, match="unknown config path 'workload.total_budget'"):
            resolve_path("workload.total_budget")

    def test_unknown_group_and_field(self):
        for path in ("physics.total_budget", "nope", "a.b.c"):
            with pytest.raises(ValueError, match="unknown config path"):
                resolve_path(path)


class TestGridExpansion:
    def test_cartesian_product_row_major(self):
        study = (
            api.Study("grid")
            .base(tiny_base())
            .over("budget.total_budget", [100.0, 200.0], label="C")
            .over("workload.horizon", [2, 3], label="T")
        )
        assert len(study) == 4
        points = study.points()
        assert [p.index for p in points] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert points[0].coordinates == {"C": 100.0, "T": 2}
        assert points[3].coordinates == {"C": 200.0, "T": 3}
        assert points[0].scenario.config.total_budget == 100.0
        assert points[0].scenario.config.horizon == 2
        assert points[3].scenario.config.total_budget == 200.0
        assert points[1].name == "study-test/C=100,T=3"

    def test_zero_axes_single_point(self):
        study = api.Study("degenerate").base(tiny_base())
        points = study.points()
        assert len(points) == 1
        assert points[0].coordinates == {}
        assert points[0].name == "study-test"

    def test_duplicate_axis_labels_rejected(self):
        study = (
            api.Study("dup")
            .base(tiny_base())
            .over("total_budget", [1.0], label="x")
            .over("horizon", [2], label="x")
        )
        with pytest.raises(ValueError, match="duplicate axis label"):
            study.points()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            api.Study("empty").base(tiny_base()).over("horizon", [])

    def test_policies_axis(self):
        study = (
            api.Study("lineups")
            .base(tiny_base())
            .over_policies("oscar", ["oscar", "ma"], ("mf", {"gamma": 250.0}))
        )
        points = study.points()
        assert len(points) == 3
        assert [len(p.scenario.policies) for p in points] == [1, 2, 1]
        assert points[1].coordinates["policies"] == "oscar+ma"
        assert points[2].scenario.policies[0].kwargs == {"gamma": 250.0}

    def test_topology_axis(self):
        study = api.Study("topo").base(tiny_base()).over_topology("ring", "line")
        points = study.points()
        assert [p.scenario.config.topology_kind for p in points] == ["ring", "line"]
        with pytest.raises(ValueError, match="unknown topology kind"):
            api.Study("topo").over_topology("moebius")

    def test_custom_axis(self):
        study = (
            api.Study("custom")
            .base(tiny_base())
            .over_values("pairs", [1, 2], lambda s, v: s.with_workload(max_pairs=v))
        )
        points = study.points()
        assert [p.scenario.config.max_pairs for p in points] == [1, 2]


class TestExecution:
    def test_unit_split_matches_joint_session(self):
        """point × policy work units reproduce a joint Session run exactly."""
        base = tiny_base(trials=2)
        study_result = api.Study("one").base(base).run(workers=2)
        assert study_result.meta["tasks_executed"] == 2 * 2  # trials × policies
        joint_record = api.run_scenario(base)
        assert trials_payload(study_result.records[0]) == trials_payload(joint_record)

    def test_serial_run_executes_whole_trials(self):
        """workers=1 builds each trial's graph/trace once, not once per policy."""
        result = api.Study("serial").base(tiny_base(trials=2)).run(workers=1)
        assert result.meta["tasks_executed"] == 2  # one unit per trial

    def test_parallel_study_matches_serial(self):
        study = (
            api.Study("par")
            .base(tiny_base(trials=2))
            .over("budget.total_budget", [150.0, 250.0], label="C")
        )
        serial = study.run(workers=1)
        parallel = study.run(workers=2)
        assert study_payload(serial) == study_payload(parallel)
        assert serial.meta["workers"] == 1
        assert parallel.meta["workers"] == 2
        assert parallel.meta["tasks_executed"] == 2 * 2 * 2  # points × trials × policies

    def test_multiuser_point_runs_whole_trials(self):
        scenario = (
            api.Scenario.tiny("shared")
            .with_workload(horizon=3)
            .with_trials(1)
            .with_user("lab", policy="oscar", total_budget=120.0)
            .with_user("edge", policy="naive")
        )
        study = api.Study("mu").base(scenario).over("budget.gamma", [250.0, 500.0])
        result = study.run()
        assert result.meta["tasks_executed"] == 2  # one unit per trial, not per user
        for record in result.records:
            assert record.kind == "multiuser"
            assert record.provider_trials

    def test_run_study_alias(self):
        result = api.run_study(api.Study("alias").base(tiny_base()))
        assert result.num_points == 1


class TestResultStore:
    def make_study(self, values=(150.0, 250.0)):
        return (
            api.Study("stored")
            .base(tiny_base())
            .over("budget.total_budget", list(values), label="C")
        )

    def test_rerun_hits_cache(self, tmp_path):
        study = self.make_study()
        first = study.run(store=tmp_path)
        assert first.meta["points_cached"] == 0
        assert len(list(tmp_path.glob("*.json"))) == 2
        again = study.run(store=tmp_path)
        assert again.meta["points_cached"] == 2
        assert again.meta["tasks_executed"] == 0
        assert study_payload(first) == study_payload(again)

    def test_overlapping_grid_reuses_points(self, tmp_path):
        self.make_study(values=(150.0,)).run(store=tmp_path)
        grown = self.make_study(values=(150.0, 250.0)).run(store=tmp_path)
        assert grown.meta["points_cached"] == 1
        assert grown.meta["tasks_executed"] == 1  # only the new point's trial

    def test_interrupt_then_resume(self, tmp_path, monkeypatch):
        """Completed points survive a mid-study crash and are not recomputed."""
        import repro.api.study as study_module

        study = self.make_study()
        real = study_module._execute_study_task

        def explode_on_second_point(scenario, trial, unit):
            if scenario.config.total_budget == 250.0:
                raise RuntimeError("simulated interrupt")
            return real(scenario, trial, unit)

        monkeypatch.setattr(study_module, "_execute_study_task", explode_on_second_point)
        with pytest.raises(RuntimeError, match="simulated interrupt"):
            study.run(store=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1  # first point persisted

        monkeypatch.setattr(study_module, "_execute_study_task", real)
        resumed = study.run(store=tmp_path)
        assert resumed.meta["points_cached"] == 1
        assert resumed.num_points == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        study = self.make_study(values=(150.0,))
        study.run(store=tmp_path)
        (path,) = tmp_path.glob("*.json")
        path.write_text("{ torn write")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            rerun = study.run(store=tmp_path)
        assert rerun.meta["points_cached"] == 0
        assert rerun.num_points == 1

    def test_store_key_is_content_addressed(self):
        a, b = tiny_base(), tiny_base()
        assert api.ResultStore.key_for(a) == api.ResultStore.key_for(b)
        assert api.ResultStore.key_for(a) != api.ResultStore.key_for(
            a.with_budget(123.0)
        )
        # The scenario name does not influence results, so it is not keyed.
        assert api.ResultStore.key_for(a) == api.ResultStore.key_for(
            a.with_name("renamed")
        )

    def test_points_shared_across_studies(self, tmp_path):
        """A differently-named study with the same grid reuses stored points."""
        first = (
            api.Study("alpha")
            .base(tiny_base())
            .over("budget.total_budget", [150.0, 250.0], label="C")
            .run(store=tmp_path)
        )
        second = (
            api.Study("beta")
            .base(tiny_base())
            .over("budget.total_budget", [150.0, 250.0], label="budget")
            .run(store=tmp_path)
        )
        assert second.meta["points_cached"] == 2
        assert second.meta["tasks_executed"] == 0
        assert study_payload(first) == study_payload(second)
        # Loaded records are presented under the borrowing study's names.
        assert second.records[0].scenario["name"] == "study-test/budget=150"


class TestStudyResult:
    @pytest.fixture(scope="class")
    def result(self):
        return (
            api.Study("res")
            .base(tiny_base())
            .over("budget.total_budget", [150.0, 250.0], label="C")
            .run()
        )

    def test_series_alignment(self, result):
        series = result.series("average_success_rate")
        assert set(series) == {"OSCAR", "MA"}
        assert all(len(values) == 2 for values in series.values())
        assert all(0.0 <= v <= 1.0 for values in series.values() for v in values)

    def test_series_fills_nan_for_missing_lineup_entries(self):
        result = (
            api.Study("mixed").base(tiny_base()).over_policies("oscar", "ma").run()
        )
        series = result.series("total_cost")
        assert math.isnan(series["OSCAR"][1])
        assert math.isnan(series["MA"][0])
        assert not math.isnan(series["OSCAR"][0])

    def test_record_at(self, result):
        record = result.record_at(C=150.0)
        assert record.scenario["config"]["total_budget"] == 150.0
        with pytest.raises(KeyError):
            result.record_at(C=999.0)

    def test_axis_values_and_coordinates(self, result):
        assert result.axis_values("C") == [150.0, 250.0]
        assert result.coordinates() == [{"C": 150.0}, {"C": 250.0}]
        with pytest.raises(KeyError):
            result.axis_values("missing")

    def test_format_summary(self, result):
        text = result.format_summary()
        assert "C" in text.splitlines()[1]
        assert "OSCAR.average_success_rate" in text
        custom = result.format_summary(metrics=("fairness",), title="only fairness")
        assert "only fairness" in custom and "OSCAR.fairness" in custom

    def test_json_round_trip(self, result, tmp_path):
        path = result.save(tmp_path / "study.json")
        loaded = api.StudyResult.load(path)
        assert loaded.name == result.name
        assert loaded.axes == result.axes
        assert [p.coordinates for p in loaded.points] == [
            p.coordinates for p in result.points
        ]
        assert study_payload(loaded) == study_payload(result)

    def test_point_whose_config_no_longer_loads_still_loads(self):
        # A --legacy-solver run saved use_kernel = false, a config that no
        # longer loads; the study's points and summaries need only the
        # results.
        path = Path(__file__).parent / "data" / "study_nested_physical.json"
        payload = json.loads(path.read_text())
        original = api.StudyResult.from_dict(payload)
        payload["points"][0]["record"]["scenario"]["config"]["use_kernel"] = False
        patched = api.StudyResult.from_dict(payload)
        (point,) = patched.points
        assert point.index == (0,)
        assert point.coordinates == {"physical.swap_success": 0.9}
        assert point.name == "tiny/physical.swap_success=0.9"
        assert patched.format_summary() == original.format_summary()

    def test_records_per_point(self, result):
        assert len(result.records) == 2
        assert result.records[0].lineup == ["OSCAR", "MA"]


class TestTopologyKinds:
    def test_scenario_with_topology_kind(self):
        scenario = api.Scenario.tiny().with_topology(kind="ring")
        assert scenario.config.topology_kind == "ring"
        with pytest.raises(ValueError, match="unknown topology kind"):
            api.Scenario.tiny().with_topology(kind="torus")

    @pytest.mark.parametrize("kind", ["grid", "ring", "star", "line", "complete"])
    def test_build_graph_per_kind(self, kind):
        config = ExperimentConfig.tiny().with_overrides(topology_kind=kind)
        graph = config.build_graph(seed=3)
        assert len(graph.nodes) >= config.num_nodes - 1  # star: n-1 leaves + hub
        assert len(graph.edges) > 0

    def test_invalid_kind_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            ExperimentConfig.tiny().with_overrides(topology_kind="torus")

    def test_regular_topology_study_end_to_end(self):
        result = (
            api.Study("families")
            .base(tiny_base(policies=("oscar",)))
            .over_topology("ring", "line")
            .run()
        )
        rates = result.series("average_success_rate")["OSCAR"]
        assert len(rates) == 2 and all(0.0 <= r <= 1.0 for r in rates)


class TestFigureRewire:
    """The Study-based figures keep the pre-rewire numbers and types."""

    def test_fig5_matches_direct_compare(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4)
        budgets = [150.0, 250.0]
        figure = figures.run("fig5", config, values=budgets, trials=1, seed=5)
        for index, budget in enumerate(budgets):
            record = api.compare(
                config.with_overrides(total_budget=budget), trials=1, seed=5
            )
            for name, metrics in record.summary().items():
                assert figure.data["success_rate"][name][index] == pytest.approx(
                    metrics["average_success_rate"].mean
                )
                assert figure.data["total_cost"][name][index] == pytest.approx(
                    metrics["total_cost"].mean
                )
        assert figure.study is not None and figure.study.num_points == 2
        assert figure.study.records[0].lineup == ["OSCAR", "MA", "MF"]
        payload = figure.to_dict()
        assert payload["figure"] == "fig5" and payload["study"]["points"]

    def test_fig7_single_policy_study(self):
        config = ExperimentConfig.tiny().with_overrides(horizon=4)
        figure = figures.run("fig7", config, values=[100.0, 500.0], trials=1, seed=5)
        assert len(figure.data["average_utility"]) == 2
        assert len(figure.data["theorem1_bounds"]) == 2
        assert figure.study.axis_values("V") == [100.0, 500.0]


class TestOffLayerAxes:
    """A field of a layer that is off turns the layer on (it used to be
    ignored: every point ran the same comparison)."""

    def test_fault_axis_without_faults_changes_the_rows(self):
        result = (
            api.Study("faults")
            .base(api.Scenario.tiny().with_policies("oscar"))
            .over("faults.edge_mtbf", [0.0, 5.0])
            .run()
        )
        first, second = (summary["OSCAR"] for summary in result.summaries())
        assert first["total_cost"].mean != second["total_cost"].mean

    def test_serving_axis_on_a_batch_scenario_serves(self):
        points = (
            api.Study("serving")
            .base(api.Scenario.tiny())
            .over("serving.arrival_rate", [1.0])
            .points()
        )
        assert points[0].scenario.is_serving

    def test_with_config_field_of_an_off_layer_runs_it(self):
        base = api.Scenario.tiny().with_policies("oscar")
        faulty = base.with_config(fault_edge_mtbf=5.0)
        assert faulty.run().summary() != base.run().summary()


class TestServingStudies:
    def test_serving_axis_short_names_resolve(self):
        assert resolve_path("serving.arrival_rate") == "serving.arrival_rate"
        assert resolve_path("serving.serving_merge_every") == "serving.merge_every"
        assert resolve_path("serving.admission") == "serving.admission"

    def test_serving_axis_rejects_foreign_fields(self):
        with pytest.raises(ValueError):
            resolve_path("serving.total_budget")

    def test_serving_trials_are_not_unit_split(self):
        from repro.api.study import _unit_count

        serving = api.Scenario.tiny().with_serving()
        assert _unit_count(serving) is None
        comparison = api.Scenario.tiny().with_policies("oscar", "ma")
        assert _unit_count(comparison) == 2

    def test_study_over_serving_axis(self):
        base = (
            api.Scenario.tiny("serving-sweep")
            .with_serving(arrival_rate=1.0, session_rate=2.0)
            .with_trials(1)
            .with_seed(5)
        )
        result = (
            api.Study("serving-sweep")
            .base(base)
            .over("serving.arrival_rate", [0.5, 2.0], label="lambda")
            .run()
        )
        assert len(result.records) == 2
        stats = result.stats("serving")
        assert stats is not None
        assert stats["sessions_arrived"] > 0
        low, high = result.records
        assert (
            low.stats("serving")["sessions_arrived"]
            < high.stats("serving")["sessions_arrived"]
        )

    def test_serving_study_parallel_matches_serial(self):
        import json as _json

        from repro.api.records import trial_to_dict

        def payload(result):
            return _json.dumps(
                [trial_to_dict(record.trials[0]) for record in result.records],
                sort_keys=True,
            )

        base = (
            api.Scenario.tiny("serving-par")
            .with_serving(arrival_rate=1.0)
            .with_trials(1)
            .with_seed(9)
        )
        study = lambda: (
            api.Study("serving-par")
            .base(base)
            .over("serving.arrival_rate", [0.5, 1.5])
        )
        assert payload(study().run(workers=1)) == payload(study().run(workers=2))
