"""Tracked benchmark of the telemetry subsystem's overhead.

Times one full trial (the ``execute_trial`` unit of parallelism) at every
telemetry level plus a *bypass* reference that calls the inner runner
directly (no level dispatch at all):

* **bypass** — ``_execute_trial_inner``: the pre-telemetry code path;
* **off** — ``execute_trial`` with telemetry off (``config.telemetry`` is
  ``None``): a level check resolving to *no tracer built*, then straight
  to the inner runner.  Its ratio to bypass is reported as
  ``off_overhead`` but not gated: a best-of-N timing ratio spreads wider
  than the 3 % it was meant to bound, so the contract that ``off`` is a
  no-op is held structurally by ``tests/test_off_builds_nothing.py`` (no
  tracer, guard or flight recorder is built on any driver);
* **light / full** — the tracer armed, measuring what span aggregation and
  (at ``full``) the bounded event ring add.

All four levels must produce byte-identical per-slot cost series — the
tracer is observational by construction, and this benchmark re-asserts it.

Writes ``BENCH_telemetry.json`` (``--output``); with ``--check
BASELINE.json`` it exits non-zero when the levels' cost series differ or
when any armed level's slowdown doubles against the baseline.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_bench.py --quick --output BENCH_telemetry.json
    PYTHONPATH=src python benchmarks/telemetry_bench.py --quick --check benchmarks/BENCH_telemetry_quick.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api.scenario import Scenario
from repro.api.session import _execute_trial_inner, execute_trial
from repro.experiments.config import ExperimentConfig
from repro.version import __version__

#: An armed level regresses when its slowdown doubles against the baseline.
SLOWDOWN_REGRESSION_FACTOR = 2.0


def bench_config(quick: bool) -> ExperimentConfig:
    return ExperimentConfig(
        num_nodes=10,
        horizon=12 if quick else 30,
        total_budget=400.0 if quick else 900.0,
        trials=1,
        max_pairs=4,
        gibbs_iterations=20,
        num_candidate_routes=3,
        base_seed=2024,
    )


def _scenario(config: ExperimentConfig, level: str) -> Scenario:
    return Scenario.from_config(
        config.with_overrides(**{"telemetry.level": level}),
        name=f"telemetry-bench/{level}",
    ).with_policies("oscar")


def _costs(results) -> list:
    (result,) = results.values()
    return result.per_slot_costs()


def run_benchmarks(quick: bool) -> dict:
    config = bench_config(quick)
    repeats = 7 if quick else 12
    # Quick-mode trials are ~0.1 s — too short for scheduler jitter to stay
    # below the 3 % off-overhead contract — so each timed sample runs the
    # trial ``inner`` times back-to-back and reports the per-trial mean.
    inner = 3 if quick else 1

    variants = {
        "bypass": (_execute_trial_inner, _scenario(config, "off")),
        "off": (execute_trial, _scenario(config, "off")),
        "light": (execute_trial, _scenario(config, "light")),
        "full": (execute_trial, _scenario(config, "full")),
    }

    # Warm caches (kernel compilation, imports) outside the timed region.
    execute_trial(_scenario(config, "off"), 0)

    # Interleave the variants round-robin and keep the best-of-N: the
    # off-vs-bypass contract is about a single level check, far below the
    # run-to-run drift that separate timed blocks would carry into the
    # 3 % bound.
    timings = {name: [] for name in variants}
    costs = {}
    for _ in range(repeats):
        for name, (runner, scenario) in variants.items():
            start = time.perf_counter()
            for _round in range(inner):
                results, _records = runner(scenario, 0)
            timings[name].append((time.perf_counter() - start) / inner)
            costs[name] = _costs(results)

    best = {name: min(values) for name, values in timings.items()}
    bypass_s = best["bypass"]
    identical = all(costs[name] == costs["bypass"] for name in variants)
    levels = {
        level: {
            "trial_s": round(best[level], 4),
            "slowdown_vs_bypass": round(best[level] / bypass_s, 4),
        }
        for level in ("off", "light", "full")
    }

    return {
        "meta": {
            "version": __version__,
            "quick": quick,
            "horizon": config.horizon,
            "repeats": repeats,
            "inner": inner,
            "python": sys.version.split()[0],
        },
        "bypass": {"trial_s": round(bypass_s, 4)},
        "levels": levels,
        "off_overhead": levels["off"]["slowdown_vs_bypass"],
        "costs_identical_across_levels": identical,
    }


def check_against_baseline(results: dict, baseline: dict) -> list:
    """Cost-series identity breaks and armed-level slowdown regressions."""
    failures = []
    baseline_quick = (baseline.get("meta") or {}).get("quick")
    if baseline_quick is not None and baseline_quick != results["meta"]["quick"]:
        return [
            "baseline was recorded with quick=%s but this run used quick=%s; "
            "compare like against like (benchmarks/BENCH_telemetry_quick.json "
            "is the quick-mode baseline)" % (baseline_quick, results["meta"]["quick"])
        ]
    if not results["costs_identical_across_levels"]:
        failures.append("telemetry levels changed the per-slot cost series")
    for level in ("light", "full"):
        current = (results["levels"].get(level) or {}).get("slowdown_vs_bypass")
        reference = ((baseline.get("levels") or {}).get(level) or {}).get(
            "slowdown_vs_bypass"
        )
        if current is None or reference is None:
            continue
        if current > SLOWDOWN_REGRESSION_FACTOR * max(reference, 1.0):
            failures.append(
                f"{level}: slowdown {current:.2f}x more than doubled vs "
                f"baseline {reference:.2f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller horizon for CI smoke runs")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the benchmark JSON to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail on contract violations / regressions vs this baseline")
    arguments = parser.parse_args(argv)

    results = run_benchmarks(quick=arguments.quick)
    print(json.dumps(results, indent=2))

    if arguments.output:
        Path(arguments.output).write_text(json.dumps(results, indent=2) + "\n")
        print(f"[written to {arguments.output}]", file=sys.stderr)

    if arguments.check:
        baseline = json.loads(Path(arguments.check).read_text())
        failures = check_against_baseline(results, baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("[no regression against baseline]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
