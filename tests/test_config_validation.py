"""ExperimentConfig.validate(): early, typed, picklable configuration errors."""

from __future__ import annotations

import pickle

import pytest

from repro import api
from repro.experiments.config import ConfigError, ExperimentConfig


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_config_error_pickles():
    error = ConfigError("bad horizon")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, ConfigError)
    assert str(clone) == "bad horizon"


def test_default_presets_are_valid():
    for preset in (ExperimentConfig.paper, ExperimentConfig.small, ExperimentConfig.tiny):
        assert preset().validate() is not None


def test_negative_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        ExperimentConfig.tiny().with_overrides(horizon=-5)


def test_zero_trials():
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.tiny().with_overrides(trials=0)


def test_negative_budget():
    with pytest.raises(ConfigError, match="total_budget"):
        ExperimentConfig.tiny().with_overrides(total_budget=-1.0)


def test_negative_arrival_rate_only_when_serving():
    # Setting a serving field switches serving on, so the value is checked
    # at once; the switched-off layer holds no value to check.
    with pytest.raises(ConfigError, match="arrival_rate"):
        ExperimentConfig.tiny().with_overrides(serving_arrival_rate=-1.0)
    assert ExperimentConfig.tiny().with_overrides(serving_enabled=False).serving is None


def test_nonpositive_mttr_only_when_faulty():
    # The repair time matters once a transient outage process can fail.
    config = ExperimentConfig.tiny().with_overrides(fault_mttr=0.0)
    with pytest.raises(ConfigError, match="mttr"):
        config.with_overrides(fault_edge_mtbf=5.0)


def test_empty_pair_range():
    with pytest.raises(ConfigError, match="min_pairs"):
        ExperimentConfig.tiny().with_overrides(min_pairs=4, max_pairs=2)


def test_negative_latency():
    with pytest.raises(ConfigError, match="signaling_latency_s"):
        ExperimentConfig.tiny().with_overrides(signaling_latency_s=-0.1)


# --------------------------------------------------------------------- #
# Did-you-mean hints on name-typo errors
# --------------------------------------------------------------------- #
def test_backend_typo_suggests():
    with pytest.raises(ConfigError, match="did you mean 'event'"):
        ExperimentConfig.tiny().with_overrides(backend="evnt")


def test_guard_level_typo_suggests():
    with pytest.raises(ConfigError, match="did you mean 'strict'"):
        ExperimentConfig.tiny().with_overrides(guard_level="strikt")


def test_topology_typo_suggests():
    with pytest.raises(ConfigError, match="unknown topology kind"):
        ExperimentConfig.tiny().with_overrides(topology_kind="waxmann")


def test_hopeless_typo_gets_no_suggestion():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.tiny().with_overrides(backend="zzzzzz")
    assert "did you mean" not in str(info.value)


# --------------------------------------------------------------------- #
# Propagation through the entry points
# --------------------------------------------------------------------- #
def test_scenario_validate_rechecks_config():
    scenario = api.Scenario.tiny()
    object.__setattr__(scenario.config, "horizon", -3)  # simulate a stale dict
    with pytest.raises(ConfigError, match="horizon"):
        scenario.validate()


def test_scenario_from_dict_rejects_bad_config():
    payload = api.Scenario.tiny().to_dict()
    payload["config"]["backend"] = "evnt"
    with pytest.raises(ConfigError, match="did you mean 'event'"):
        api.Scenario.from_dict(payload)


def test_error_crosses_worker_pool():
    """A ConfigError raised in a worker must surface intact in the parent."""
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        with pytest.raises(ConfigError, match="horizon"):
            pool.apply(_make_bad_config)


def _make_bad_config():
    ExperimentConfig.tiny().with_overrides(horizon=-1)
