"""Invariant fuzzing: randomized small scenarios must run breach-free.

Fifty seeded random combinations of topology family, policy, backend,
physical/fault layers and a two-tenant line-up execute one trial each under
``guard_level="strict"``.
Every check pack runs on every slot; any invariant breach raises and fails
the test.  Physical configurations draw the batched engine or its per-pair
reference.  A couple of the configurations additionally verify that the
guarded run is byte-identical between serial and parallel execution.
"""

from __future__ import annotations

import json
import random
from typing import Tuple

import pytest

from repro import api
from repro.analysis.stats import merge_stat_mappings
from repro.experiments.config import ExperimentConfig
from repro.simulation.physical import PhysicalModel, ReferencePhysicalEngine

FUZZ_CASES = 50

TOPOLOGIES = ("waxman", "grid", "ring", "star", "line", "complete")
POLICIES = ("oscar", "ma", "mf")
BACKENDS = ("slotted", "event")


def _fuzz_config(seed: int) -> Tuple[ExperimentConfig, bool, bool]:
    """A random strict-guard config, whether it runs two tenants, and
    whether its physical layer runs on the reference engine."""
    rng = random.Random(seed)
    reference = False
    overrides = {
        "topology_kind": rng.choice(TOPOLOGIES),
        "backend": rng.choice(BACKENDS),
        "num_nodes": rng.randint(6, 9),
        "horizon": rng.randint(3, 6),
        "max_pairs": rng.randint(1, 3),
        "total_budget": float(rng.randint(80, 300)),
        "base_seed": 1000 + seed,
        "trials": 1,
        "guard_level": "strict",
    }
    if rng.random() < 0.4:
        overrides["physical_enabled"] = True
        overrides["physical_swap_success"] = rng.choice([1.0, 0.9, 0.75])
        overrides["physical_purify_rounds"] = rng.randint(0, 1)
        reference = rng.choice(["vectorized", "reference"]) == "reference"
    if rng.random() < 0.4:
        overrides["fault_enabled"] = True
        overrides["fault_node_mtbf"] = float(rng.choice([0, 20, 40]))
        overrides["fault_edge_mtbf"] = float(rng.choice([0, 20, 40]))
        overrides["fault_mttr"] = float(rng.randint(2, 6))
    if overrides["backend"] == "event" and rng.random() < 0.5:
        overrides["signaling_latency_s"] = rng.choice([0.0, 1e-4, 5e-4])
    if rng.random() < 0.3:
        overrides["dual_tolerance"] = 0.0
    # Drawn last, so the configs above stay what they were.
    multiuser = overrides["backend"] == "slotted" and rng.random() < 0.3
    return ExperimentConfig.tiny().with_overrides(**overrides), multiuser, reference


def _policy_for(seed: int) -> str:
    return random.Random(seed ^ 0xA5A5).choice(POLICIES)


def _fuzz_scenario(seed: int, name: str, trials: int = 1) -> Tuple[api.Scenario, bool]:
    """The seed's scenario, and whether it runs on the reference engine."""
    config, multiuser, reference = _fuzz_config(seed)
    scenario = api.Scenario.from_config(config.with_overrides(trials=trials), name=name)
    if multiuser:
        return scenario.with_user("a", _policy_for(seed)).with_user("b", "mf"), reference
    return scenario.with_policies(_policy_for(seed)), reference


@pytest.mark.parametrize("seed", range(FUZZ_CASES))
def test_randomized_scenario_runs_breach_free(seed, monkeypatch):
    scenario, reference = _fuzz_scenario(seed, f"fuzz/{seed}")
    if reference:
        monkeypatch.setattr(
            PhysicalModel,
            "build_engine",
            lambda model, attempts_per_slot: ReferencePhysicalEngine(model, attempts_per_slot),
        )
    results, _ = api.execute_trial(scenario, 0)  # raises InvariantViolation on breach
    assert len(results) == (2 if scenario.is_multiuser else 1)
    stats = merge_stat_mappings(result.diagnostics.get("guard") for result in results.values())
    assert stats is not None
    assert stats["breaches"] == 0
    assert stats["slots"] >= scenario.config.horizon
    assert stats["checks"] > 0


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_guarded_parallel_matches_serial(seed):
    scenario, _ = _fuzz_scenario(seed, f"fuzz-par/{seed}", trials=2)
    serial = api.run_scenario(scenario, workers=1)
    parallel = api.run_scenario(scenario, workers=2)
    serial_trials = json.dumps(serial.to_dict()["trials"], sort_keys=True)
    parallel_trials = json.dumps(parallel.to_dict()["trials"], sort_keys=True)
    assert serial_trials == parallel_trials
    assert serial.stats("guard") == parallel.stats("guard")
    assert serial.stats("guard")["breaches"] == 0
