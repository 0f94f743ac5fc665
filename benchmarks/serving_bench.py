"""Tracked benchmark of the serving layer: streaming sessions at fleet scale.

Two measurements:

* **throughput** — one open-system run (Poisson session arrivals, renewals,
  online admission) pushed to ≥10⁵ simulated requests, reported as
  requests/s of wall clock and normalised against a bare numpy
  Poisson-draw loop measured in the same process.  The headline number is
  the dimensionless ``relative_throughput`` (serving requests/s over raw
  draws/s), which is stable across machines.
* **merge-window identity** — the same run with admission every slot and
  once per 5-slot window, asserting the per-slot records are byte-identical
  (always-admit never reads the stale window state, so the window must not
  change a value).

Writes the numbers to ``BENCH_serving.json`` (``--output``); with
``--check BASELINE.json`` it exits non-zero when the two windows diverge,
the full-mode run falls short of the 10⁵-request floor, or a relative
metric falls below 80 % of the committed baseline's (ratios, not absolute
times, so the check is stable across machines).

Usage::

    PYTHONPATH=src python benchmarks/serving_bench.py --output BENCH_serving.json
    PYTHONPATH=src python benchmarks/serving_bench.py --quick --check benchmarks/BENCH_serving_quick.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.api.records import result_to_dict
from repro.experiments.config import ExperimentConfig
from repro.serving.scheduler import ServingModel, ServingSimulator, serving_requests_per_second
from repro.utils.rng import derive_seed
from repro.version import __version__

#: Regression threshold: fail when a relative metric drops below this
#: fraction of the committed baseline's value.
REGRESSION_FRACTION = 0.8

#: The full-mode run must sustain at least this many simulated requests.
REQUEST_FLOOR = 100_000


def serving_config(quick: bool, merge_every: int = 1) -> ExperimentConfig:
    """The benchmark's open-system configuration (fleet scale in full mode)."""
    return ExperimentConfig.small().with_overrides(
        horizon=60 if quick else 400,
        total_budget=1.0e9,
        serving=ServingModel(
            arrival_rate=1.0 if quick else 2.0,
            session_rate=2.5,
            session_lifetime=20.0 if quick else 60.0,
            renew_probability=0.2,
            session_budget=12.0,
            admission="always",
            merge_every=merge_every,
        ),
    )


def run_serving(config: ExperimentConfig, seed: int = 1):
    """One serving run; returns (seconds, result)."""
    graph = config.build_graph(seed=derive_seed(seed, "graph", 0))
    simulator = ServingSimulator(
        graph=graph,
        model=config.serving,
        horizon=config.horizon,
        total_budget=config.total_budget,
    )
    # Collect the previous run's garbage now, so a gen-2 collection cannot
    # land inside the timed region.
    gc.collect()
    started = time.perf_counter()
    result = simulator.run(seed=derive_seed(seed, "serving", 0))
    return time.perf_counter() - started, result


def run_draw_baseline(draws: int) -> float:
    """A bare numpy Poisson/uniform draw loop (the normaliser)."""
    rng = np.random.default_rng(7)
    gc.collect()
    started = time.perf_counter()
    for _ in range(draws // 100):
        counts = rng.poisson(2.5, size=100)
        rng.random(int(counts.sum()) or 1)
    return time.perf_counter() - started


def bench_throughput(quick: bool, repeats: int) -> dict:
    config = serving_config(quick)
    best_s = float("inf")
    result = None
    for _ in range(repeats):
        seconds, result = run_serving(config)
        best_s = min(best_s, seconds)
    stats = result.diagnostics["serving"]
    arrived = int(stats["requests_arrived"])
    draws = 200_000 if quick else 1_000_000
    draw_s = min(run_draw_baseline(draws) for _ in range(repeats))
    requests_per_s = arrived / best_s
    draws_per_s = draws / draw_s
    return {
        "horizon": config.horizon,
        "requests_arrived": arrived,
        "requests_served": int(stats["requests_served"]),
        "sessions_arrived": int(stats["sessions_arrived"]),
        "run_s": round(best_s, 4),
        "requests_per_s": round(requests_per_s, 1),
        "draws_per_s": round(draws_per_s, 1),
        "relative_throughput": round(requests_per_s / draws_per_s, 4),
        "simulated_requests_per_s": round(
            serving_requests_per_second(stats) or 0.0, 2
        ),
    }


def bench_merge_window_identity(quick: bool) -> dict:
    """Byte-identity of admission every slot vs once per 5-slot window."""
    every_slot_s, every_slot = run_serving(serving_config(quick, merge_every=1))
    windowed_s, windowed = run_serving(serving_config(quick, merge_every=5))
    identical = json.dumps(result_to_dict(every_slot), sort_keys=True) == json.dumps(
        result_to_dict(windowed), sort_keys=True
    )
    return {
        "merge_every_1_s": round(every_slot_s, 4),
        "merge_every_5_s": round(windowed_s, 4),
        "records_identical": identical,
    }


def run_benchmarks(quick: bool) -> dict:
    repeats = 2 if quick else 3
    return {
        "meta": {
            "version": __version__,
            "quick": quick,
            "python": sys.version.split()[0],
        },
        "throughput": bench_throughput(quick, repeats),
        "merge_window": bench_merge_window_identity(quick),
    }


def check_against_baseline(results: dict, baseline: dict) -> list:
    """Regressions vs the committed baseline (see module docstring)."""
    failures = []
    baseline_quick = (baseline.get("meta") or {}).get("quick")
    if baseline_quick is not None and baseline_quick != results["meta"]["quick"]:
        return [
            "baseline was recorded with quick=%s but this run used quick=%s; "
            "compare like against like (benchmarks/BENCH_serving_quick.json "
            "is the quick-mode baseline)" % (baseline_quick, results["meta"]["quick"])
        ]
    if not results["merge_window"]["records_identical"]:
        failures.append(
            "merge_window: 1-slot and 5-slot merge windows diverged under "
            "always-admit (determinism break)"
        )
    if not results["meta"]["quick"]:
        arrived = results["throughput"]["requests_arrived"]
        if arrived < REQUEST_FLOOR:
            failures.append(
                f"throughput: {arrived} simulated requests fell below the "
                f"{REQUEST_FLOOR} floor"
            )
    current = results["throughput"].get("relative_throughput")
    reference = (baseline.get("throughput") or {}).get("relative_throughput")
    if current is not None and reference is not None:
        if current < REGRESSION_FRACTION * reference:
            failures.append(
                f"throughput: relative_throughput {current:.4f} fell below "
                f"{REGRESSION_FRACTION:.0%} of baseline {reference:.4f}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter horizon and lighter load for CI smoke runs")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the benchmark JSON to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail on merge-window divergence, a sub-floor request "
                             "count, or >20%% relative regression vs this "
                             "baseline JSON")
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
