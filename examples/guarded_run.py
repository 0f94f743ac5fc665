"""Self-verification walkthrough: guard levels, a forced breach, and replay.

The runtime invariant guard (``repro.guard``) re-checks the system's own
mathematics while it runs — constraint rows, virtual-queue conservation,
dual bounds, fidelity ranges, fault accounting — without perturbing a
single random draw.  This example shows the full loop:

1. run a guarded experiment and read the guard's check counters;
2. show that ``off``/``cheap``/``strict`` produce byte-identical results;
3. force a synthetic invariant breach, which dumps a content-addressed
   repro bundle;
4. replay the bundle and watch the exact same failure reproduce, keyed by
   an identical content hash;
5. run the lockstep differential pair (slotted vs. event backend at zero
   latency).

Run it with::

    python examples/guarded_run.py
"""

from __future__ import annotations

import os
import tempfile

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.guard.invariants import FORCE_BREACH_ENV_VAR, InvariantViolation
from repro.simulation.physical import PhysicalModel


def example_config() -> ExperimentConfig:
    return ExperimentConfig(
        num_nodes=10,
        horizon=20,
        total_budget=500.0,
        trials=1,
        max_pairs=4,
        gibbs_iterations=20,
        num_candidate_routes=3,
        physical=PhysicalModel(),
    )


def main() -> None:
    config = example_config()

    print("=== 1. A guarded run and its check counters ===")
    scenario = api.Scenario.from_config(
        config.with_overrides(guard_level="strict"), name="guarded"
    ).with_policies("oscar")
    record = api.run_scenario(scenario)
    stats = record.stats("guard")
    print(f"guard level : strict")
    print(f"slots       : {stats['slots']}")
    print(f"checks      : {stats['checks']} "
          f"(core {stats['checks_core']}, kernel {stats['checks_kernel']}, "
          f"physical {stats['checks_physical']}, faults {stats['checks_faults']})")
    print(f"breaches    : {stats['breaches']}")

    print("\n=== 2. The guard is observational: results are byte-identical ===")
    baseline = None
    for level in ("off", "cheap", "strict"):
        run = api.run_scenario(
            api.Scenario.from_config(
                config.with_overrides(guard_level=level), name=level
            ).with_policies("oscar")
        )
        costs = run.to_dict()["trials"]
        baseline = costs if baseline is None else baseline
        print(f"guard={level:<6} identical to guard=off: {costs == baseline}")

    print("\n=== 3. Force a breach -> repro bundle ===")
    bundle_path = None
    with tempfile.TemporaryDirectory() as bundles:
        os.environ["REPRO_BUNDLE_DIR"] = bundles
        os.environ[FORCE_BREACH_ENV_VAR] = "7"
        try:
            api.execute_trial(scenario, 0)
        except InvariantViolation as breach:
            bundle_path = breach.bundle_path
            print(f"breach  : {breach}")
            print(f"bundle  : {os.path.basename(bundle_path)}")
        finally:
            del os.environ[FORCE_BREACH_ENV_VAR]

        print("\n=== 4. Replay the bundle: the same failure, the same key ===")
        result = api.replay_bundle(bundle_path)
        print(result.describe())
        del os.environ["REPRO_BUNDLE_DIR"]

    print("\n=== 5. Lockstep differential pair ===")
    for report in api.diff_all_pairs(config=config.with_overrides(horizon=8)):
        print(report.describe())


if __name__ == "__main__":
    main()
