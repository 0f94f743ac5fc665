"""Tests for the repro.api policy registry."""

import pytest

from repro import api
from repro.api.registry import PolicyRegistry, UnknownPolicyError
from repro.core.baselines import MyopicAdaptivePolicy, MyopicFixedPolicy
from repro.core.oscar import OscarPolicy
from repro.core.policy import RoutingPolicy
from repro.experiments.config import ExperimentConfig


class TestDefaultRegistry:
    def test_builtin_policies_registered(self):
        names = api.available_policies()
        assert {"oscar", "myopic-adaptive", "myopic-fixed",
                "unconstrained", "shortest-uniform"} <= set(names)

    def test_make_policy_types(self):
        assert isinstance(api.make_policy("oscar"), OscarPolicy)
        assert isinstance(api.make_policy("myopic-adaptive"), MyopicAdaptivePolicy)
        assert isinstance(api.make_policy("myopic-fixed"), MyopicFixedPolicy)

    def test_aliases_and_spelling(self):
        assert isinstance(api.make_policy("ma"), MyopicAdaptivePolicy)
        assert isinstance(api.make_policy("MF"), MyopicFixedPolicy)
        assert isinstance(api.make_policy("Myopic_Fixed"), MyopicFixedPolicy)

    def test_kwargs_override(self):
        policy = api.make_policy("oscar", total_budget=42.0, trade_off_v=7.0)
        assert policy.total_budget == 42.0
        assert policy.trade_off_v == 7.0

    def test_config_supplies_defaults(self):
        config = ExperimentConfig.tiny()
        policy = api.make_policy("oscar", config)
        assert policy.total_budget == config.total_budget
        assert policy.horizon == config.horizon
        assert policy.gibbs_iterations == config.gibbs_iterations

    def test_defaults_are_paper_scale_without_config(self):
        policy = api.make_policy("oscar")
        assert policy.total_budget == 5000.0
        assert policy.horizon == 200

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            api.make_policy("oscat")
        message = str(excinfo.value)
        assert "oscat" in message
        assert "oscar" in message  # close-match suggestion

    def test_unknown_policy_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            api.make_policy("no-such-policy")

    def test_contains(self):
        assert "oscar" in api.default_registry
        assert "ma" in api.default_registry
        assert "bogus" not in api.default_registry

    def test_describe_has_one_line_per_policy(self):
        described = api.default_registry.describe()
        assert set(described) == set(api.available_policies())
        assert all(isinstance(text, str) for text in described.values())


class _CountingPolicy(RoutingPolicy):
    name = "counting"

    def reset(self, graph, horizon):
        self.horizon = horizon

    def decide(self, context, seed=None):  # pragma: no cover - not simulated here
        raise NotImplementedError


class TestCustomRegistration:
    def test_decorator_registration(self):
        registry = PolicyRegistry()

        @registry.register("counting", aliases=("count",))
        def make_counting(config, **kwargs):
            return _CountingPolicy()

        assert isinstance(registry.make("counting"), _CountingPolicy)
        assert isinstance(registry.make("count"), _CountingPolicy)

    def test_class_registration_injects_config_fields(self):
        registry = PolicyRegistry()
        registry.register("oscar", OscarPolicy)
        config = ExperimentConfig.tiny()
        policy = registry.make("oscar", config)
        assert policy.total_budget == config.total_budget
        assert policy.horizon == config.horizon

    def test_duplicate_registration_rejected(self):
        registry = PolicyRegistry()
        registry.register("oscar", OscarPolicy)
        with pytest.raises(ValueError):
            registry.register("oscar", OscarPolicy)
        registry.register("oscar", OscarPolicy, overwrite=True)  # explicit wins

    def test_unregister_removes_aliases(self):
        registry = PolicyRegistry()
        registry.register("oscar", OscarPolicy, aliases=("o",))
        registry.unregister("o")
        assert "oscar" not in registry
        assert "o" not in registry

    def test_non_callable_rejected(self):
        registry = PolicyRegistry()
        with pytest.raises(TypeError):
            registry.register("thing", 42)

    def test_registered_policy_usable_in_scenario(self):
        name = "test-registry-lineup"
        if name in api.default_registry:
            api.default_registry.unregister(name)

        @api.register_policy(name)
        def make_shortest(config, **kwargs):
            return api.make_policy("shortest-uniform", config, **kwargs)

        try:
            scenario = (
                api.Scenario.tiny()
                .with_workload(horizon=4)
                .with_trials(1)
                .with_policies("oscar", name)
            )
            record = scenario.run()
            assert record.lineup == ["OSCAR", "ShortestUniform"]
        finally:
            api.default_registry.unregister(name)
