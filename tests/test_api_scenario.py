"""Tests for the repro.api scenario builder."""

import json
from pathlib import Path

import pytest

from repro import api
from repro.core.baselines import ShortestRouteUniformPolicy
from repro.core.oscar import OscarPolicy
from repro.experiments.config import ConfigError, ExperimentConfig
from repro.workload.requests import HotspotRequestProcess, UniformRequestProcess


class TestFluentBuilders:
    def test_builders_return_new_scenarios(self):
        base = api.Scenario.tiny()
        changed = base.with_budget(999.0)
        assert base.config.total_budget != 999.0
        assert changed.config.total_budget == 999.0

    def test_topology_and_workload_fields_routed(self):
        scenario = (
            api.Scenario.tiny()
            .with_topology(num_nodes=9, target_degree=3.5)
            .with_workload(horizon=7, max_pairs=2)
            .with_budget(100.0, trade_off_v=123.0)
            .with_trials(3)
            .with_seed(5)
        )
        config = scenario.config
        assert (config.num_nodes, config.target_degree) == (9, 3.5)
        assert (config.horizon, config.max_pairs) == (7, 2)
        assert (config.total_budget, config.trade_off_v) == (100.0, 123.0)
        assert (config.trials, config.base_seed) == (3, 5)

    def test_wrong_field_rejected_with_clear_error(self):
        with pytest.raises(TypeError, match="with_topology"):
            api.Scenario.tiny().with_topology(horizon=5)
        with pytest.raises(TypeError, match="with_workload"):
            api.Scenario.tiny().with_workload(num_nodes=5)

    def test_default_lineup_is_the_papers(self):
        assert api.Scenario.tiny().lineup_names() == ("OSCAR", "MA", "MF")

    def test_with_policies_accepts_mixed_specs(self):
        scenario = api.Scenario.tiny().with_policies(
            "oscar",
            ("oscar", {"trade_off_v": 9.0}),
            api.PolicySpec("oscar", label="OSCAR-B"),
        )
        policies = scenario.build_policies()
        assert [type(p) for p in policies] == [OscarPolicy] * 3
        assert policies[1].trade_off_v == 9.0
        assert policies[2].name == "OSCAR-B"

    def test_with_policy_appends(self):
        scenario = api.Scenario.tiny().with_policies("oscar").with_policy(
            "shortest-uniform", label="Naive"
        )
        assert scenario.lineup_names() == ("OSCAR", "Naive")

    def test_empty_lineup_rejected(self):
        with pytest.raises(ValueError):
            api.Scenario.tiny().with_policies()

    def test_policies_resolve_against_scenario_config(self):
        scenario = api.Scenario.tiny().with_budget(77.0).with_policies("oscar")
        (policy,) = scenario.build_policies()
        assert policy.total_budget == 77.0
        assert policy.horizon == scenario.config.horizon


class TestMultiUser:
    def test_with_user_switches_kind(self):
        scenario = api.Scenario.tiny().with_user("lab", policy="oscar")
        assert scenario.is_multiuser
        assert scenario.kind == "multiuser"
        assert scenario.lineup_names() == ("lab",)

    def test_users_built_with_budgets_and_workloads(self):
        scenario = (
            api.Scenario.tiny()
            .with_user("lab", policy="oscar", total_budget=150.0)
            .with_user("edge", policy="naive", workload_kind="hotspot",
                       min_pairs=1, max_pairs=2, hotspot_probability=0.9)
        )
        users = scenario.build_users()
        assert users[0].total_budget == 150.0
        assert isinstance(users[0].policy, OscarPolicy)
        assert users[0].policy.total_budget == 150.0
        assert isinstance(users[0].request_process, UniformRequestProcess)
        assert users[1].total_budget == scenario.config.total_budget
        assert isinstance(users[1].policy, ShortestRouteUniformPolicy)
        assert isinstance(users[1].request_process, HotspotRequestProcess)
        assert users[1].request_process.hotspot_probability == 0.9

    def test_duplicate_user_names_rejected(self):
        scenario = (
            api.Scenario.tiny().with_user("lab").with_user("lab")
        )
        with pytest.raises(ValueError):
            scenario.validate()

    @pytest.mark.parametrize(
        "configure,family",
        [
            (lambda s: s.with_guard("strict"), "guard"),
            (lambda s: s.with_telemetry("light"), "telemetry"),
            (lambda s: s.with_faults(edge_mtbf=20.0), "faults"),
        ],
        ids=["guard", "telemetry", "faults"],
    )
    def test_layers_run_on_multiuser_lineups(self, configure, family, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        scenario = configure(
            api.Scenario.tiny().with_user("a").with_user("b", "myopic-fixed")
        )
        record = scenario.validate().run()
        assert record.stats(family) is not None

    @pytest.mark.parametrize(
        "variable,level,family",
        [("REPRO_GUARD", "cheap", "guard"), ("REPRO_TELEMETRY", "full", "telemetry")],
        ids=["REPRO_GUARD-cheap", "REPRO_TELEMETRY-full"],
    )
    def test_environment_override_arms_multiuser_lineups(
        self, variable, level, family, monkeypatch
    ):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        scenario = api.Scenario.tiny().with_user("a").with_user("b", "myopic-fixed")
        assert scenario.run().stats(family) is None
        monkeypatch.setenv(variable, level)
        assert scenario.validate().run().stats(family) is not None

    @pytest.mark.parametrize(
        "configure,variable,level,family",
        [
            (lambda s: s.with_guard("strict"), None, None, "guard"),
            (lambda s: s.with_telemetry("light"), None, None, "telemetry"),
            (lambda s: s, "REPRO_GUARD", "strict", "guard"),
            (lambda s: s, "REPRO_TELEMETRY", "light", "telemetry"),
        ],
        ids=["guard", "telemetry", "guard-env", "telemetry-env"],
    )
    def test_trial_execution_rejects_the_same(
        self, configure, variable, level, family, monkeypatch
    ):
        """Trial execution and ``validate()`` share one combination check.

        With the layer armed, a slotted tenant line-up passes both and runs
        with the layer; on the event backend both reject it.
        """
        from repro.api.session import _execute_trial_inner

        monkeypatch.delenv("REPRO_GUARD", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        scenario = configure(
            api.Scenario.tiny().with_user("a").with_user("b", "myopic-fixed")
        )
        if variable is not None:
            monkeypatch.setenv(variable, level)
        results, provider_records = _execute_trial_inner(scenario.validate(), 0)
        assert list(results) == ["a", "b"] and provider_records
        # The run-level families ride the first tenant's diagnostics only.
        assert family in results["a"].diagnostics
        assert family not in results["b"].diagnostics
        event = scenario.with_backend("event")
        with pytest.raises(ValueError, match="unsupported combination"):
            event.validate()
        with pytest.raises(ValueError, match="unsupported combination"):
            _execute_trial_inner(event, 0)

    def test_unknown_workload_kind_rejected(self):
        scenario = api.Scenario.tiny().with_user("lab", workload_kind="bogus")
        with pytest.raises(ValueError, match="bogus"):
            scenario.build_users()


class TestRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        scenario = (
            api.Scenario.tiny("rt")
            .with_budget(120.0)
            .with_policies("oscar", ("ma", {"gibbs_iterations": 5}))
        )
        payload = scenario.to_dict()
        rebuilt = api.Scenario.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.name == "rt"
        assert rebuilt.config == scenario.config
        assert rebuilt.lineup_names() == scenario.lineup_names()

    def test_multiuser_round_trip(self):
        scenario = (
            api.Scenario.tiny("shared")
            .with_user("lab", policy="oscar", total_budget=99.0,
                       workload_kind="hotspot", hotspot_probability=0.5)
        )
        payload = scenario.to_dict()
        rebuilt = api.Scenario.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.users[0].total_budget == 99.0
        assert rebuilt.users[0].workload["kind"] == "hotspot"

    def test_json_serialisable(self):
        import json

        payload = api.Scenario.small().with_user("a").to_dict()
        assert api.Scenario.from_dict(json.loads(json.dumps(payload))).to_dict() == payload

    def test_record_saved_with_solver_switches_still_loads(self):
        # Saved before the legacy solver and the recompile-per-slot kernel
        # were removed: its config carries use_kernel/kernel_cache = true.
        path = Path(__file__).parent / "data" / "record_with_solver_flags.json"
        record = api.RunRecord.load(path)
        config = record.scenario_config()
        assert config == ExperimentConfig.tiny().with_overrides(horizon=2)
        scenario = api.Scenario.from_dict(record.scenario)
        assert scenario.config == config
        assert "use_kernel" not in scenario.to_dict()["config"]

    def test_record_whose_config_no_longer_loads_still_summarises(self):
        # Records saved by --legacy-solver runs carry use_kernel = false, a
        # config that no longer loads; their summary needs only the results.
        path = Path(__file__).parent / "data" / "record_with_solver_flags.json"
        payload = json.loads(path.read_text())
        payload["scenario"]["config"]["use_kernel"] = False
        patched = api.RunRecord.from_dict(payload)
        with pytest.raises(ConfigError, match="use_kernel"):
            patched.scenario_config()
        original = api.RunRecord.load(path)
        assert repr(patched.summary()) == repr(original.summary())
        assert patched.format_summary() == original.format_summary()

    @pytest.mark.parametrize(
        "switch,removed",
        [("use_kernel", "legacy per-combination solver"),
         ("kernel_cache", "recompile-per-slot kernel")],
    )
    def test_false_solver_switch_names_the_removed_path(self, switch, removed):
        payload = api.Scenario.tiny().to_dict()
        payload["config"][switch] = False
        with pytest.raises(ConfigError, match=removed):
            api.Scenario.from_dict(payload)
        record = api.RunRecord(scenario=payload)
        with pytest.raises(ConfigError, match=switch):
            record.scenario_config()

    def test_describe_mentions_lineup(self):
        description = api.Scenario.tiny().describe()
        assert description["kind"] == "comparison"
        assert description["lineup"] == ["OSCAR", "MA", "MF"]
        assert description["config.num_nodes"] == ExperimentConfig.tiny().num_nodes


class TestServingScenario:
    def test_with_serving_sets_fields(self):
        scenario = api.Scenario.tiny().with_serving(
            arrival_rate=1.25, merge_every=3, admission="token-bucket"
        )
        serving = scenario.config.serving
        assert serving.arrival_rate == 1.25
        assert serving.merge_every == 3
        assert serving.admission == "token-bucket"
        assert scenario.is_serving
        assert scenario.kind == "serving"
        assert scenario.lineup_names() == ("serving",)

    def test_removed_layout_keywords_are_ignored(self):
        plain = api.Scenario.tiny().with_serving(arrival_rate=1.25)
        legacy = api.Scenario.tiny().with_serving(
            arrival_rate=1.25, shards=4, shard_workers=2, serving_shard_timeout_s=9.0
        )
        assert legacy.config == plain.config

    def test_with_serving_false_disables(self):
        scenario = api.Scenario.tiny().with_serving().with_serving(False)
        assert not scenario.is_serving
        assert scenario.kind == "comparison"

    def test_serving_defaults_off(self):
        assert not api.Scenario.tiny().is_serving

    def test_unknown_serving_field_rejected(self):
        with pytest.raises(TypeError):
            api.Scenario.tiny().with_serving(arrival_rage=1.0)

    def test_serving_round_trips_through_dict(self):
        scenario = api.Scenario.tiny("srv").with_serving(
            arrival_kind="trace", arrival_trace=[1, 0, 2]
        )
        rebuilt = api.Scenario.from_dict(scenario.to_dict())
        assert rebuilt.is_serving
        assert rebuilt.config.serving.arrival_trace == (1, 0, 2)

    def test_serving_rejects_event_backend_with_targeted_error(self):
        scenario = api.Scenario.tiny().with_serving().with_backend("event")
        with pytest.raises(ValueError) as excinfo:
            scenario.validate()
        message = str(excinfo.value)
        assert "backend='event'" in message
        assert "serving layer" in message
        assert "slotted" in message

    def test_serving_rejects_multiuser_lineup(self):
        scenario = api.Scenario.tiny().with_serving().with_user("tenant")
        with pytest.raises(ValueError, match="mutually exclusive"):
            scenario.validate()

    def test_multiuser_rejects_event_backend_with_targeted_error(self):
        scenario = api.Scenario.tiny().with_user("tenant").with_backend("event")
        with pytest.raises(ValueError) as excinfo:
            scenario.validate()
        message = str(excinfo.value)
        assert "backend='event'" in message
        assert "tenant line-up" in message
        assert "slotted" in message
