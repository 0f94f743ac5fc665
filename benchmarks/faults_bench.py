"""Tracked benchmark of the fault layer: schedule builds and run overhead.

Three measurements:

* **schedule** — :meth:`FaultSchedule.build` precompiles the per-slot
  outage states for a small-scale graph over a long horizon, reported as
  element-slots/s of wall clock and normalised against a bare numpy
  exponential-draw loop timed right after each build.  The headline
  number is the dimensionless ``relative_schedule_throughput``
  (element-slots/s over raw draws/s), which is stable across machines.
* **overhead** — the same scenario run fault-free and fault-injected,
  reported as ``relative_run_efficiency`` (clean seconds over faulted
  seconds); a drop means the per-slot fault path got expensive.
* **identity** — the standing determinism contracts: a run with
  ``faults=None`` is byte-identical to one that never mentions
  faults, and a fault-injected run is byte-identical on one and two
  worker processes.

Both ratios are the median over :data:`TIMED_PAIRS` back-to-back pairs.

Writes the numbers to ``BENCH_faults.json`` (``--output``); with
``--check BASELINE.json`` it exits non-zero when an identity contract
breaks or a relative metric falls below 80 % of the committed baseline's
(ratios, not absolute times, so the check is stable across machines).

Usage::

    PYTHONPATH=src python benchmarks/faults_bench.py --output BENCH_faults.json
    PYTHONPATH=src python benchmarks/faults_bench.py --quick --check benchmarks/BENCH_faults_quick.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.faults.model import FaultModel, FaultSchedule
from repro.utils.rng import derive_seed
from repro.version import __version__

#: Regression threshold: fail when a relative metric drops below this
#: fraction of the committed baseline's value.
REGRESSION_FRACTION = 0.8

#: Timed pairs behind each relative metric: a schedule build and its draw
#: normaliser, or a clean and a faulted run.  A quick sample takes 6-110 ms,
#: so one slow spell of a shared machine can cover a whole best-of-three;
#: the median pair ratio moves only when more than half the pairs are hit.  On a shared
#: 2-core machine, over consecutive windows of one process, the median of
#: seven schedule ratios read 0.038-0.049 where the best build over the best
#: draw of three read 0.032-0.069 (floor 0.0343), and the median of seven
#: run ratios read 1.58-1.96 where the best of three read 1.39-2.00 (floor
#: 1.438).
TIMED_PAIRS = 7


def bench_config(quick: bool) -> ExperimentConfig:
    base = ExperimentConfig.tiny() if quick else ExperimentConfig.small()
    return base.with_overrides(trials=2 if quick else 3)


def fault_overrides() -> dict:
    return dict(faults=FaultModel(edge_mtbf=25.0, node_mtbf=80.0, mttr=4.0))


def run_scenario(config: ExperimentConfig, workers: int = 1):
    """One OSCAR run through the facade; returns (seconds, record)."""
    scenario = api.Scenario.from_config(config).with_policies("oscar")
    gc.collect()
    started = time.perf_counter()
    record = api.run_scenario(scenario, workers=workers)
    return time.perf_counter() - started, record


def payload(record) -> str:
    body = record.to_dict()
    body.pop("meta", None)  # meta carries wall-clock timings
    return json.dumps(body, sort_keys=True)


def run_draw_baseline(draws: int) -> float:
    """A bare numpy exponential-draw loop (the normaliser)."""
    rng = np.random.default_rng(7)
    gc.collect()
    started = time.perf_counter()
    for _ in range(draws // 1000):
        rng.exponential(25.0, size=1000)
    return time.perf_counter() - started


def bench_schedule(quick: bool) -> dict:
    """Throughput of the per-slot outage-schedule precompilation."""
    config = ExperimentConfig.small()
    graph = config.build_graph(seed=derive_seed(1, "graph", 0))
    model = FaultModel(edge_mtbf=25.0, node_mtbf=80.0, mttr=4.0)
    horizon = 2000 if quick else 10000
    draws = 500_000 if quick else 1_000_000

    # Each timed sample starts after a collection, so a gen-2 pass of the
    # previous sample's garbage cannot land inside it.
    samples = []
    for _ in range(TIMED_PAIRS):
        gc.collect()
        started = time.perf_counter()
        schedule = FaultSchedule.build(model, graph, seed=11, horizon=horizon)
        build_s = time.perf_counter() - started
        draw_s = run_draw_baseline(draws)
        element_slots_per_s = schedule.num_elements * horizon / build_s
        draws_per_s = draws / draw_s
        samples.append(
            (element_slots_per_s / draws_per_s, build_s, element_slots_per_s, draws_per_s)
        )
    ratio, build_s, element_slots_per_s, draws_per_s = sorted(samples)[TIMED_PAIRS // 2]
    return {
        "horizon": horizon,
        "num_elements": schedule.num_elements,
        "build_s": round(build_s, 4),
        "element_slots_per_s": round(element_slots_per_s, 1),
        "draws_per_s": round(draws_per_s, 1),
        "relative_schedule_throughput": round(ratio, 4),
    }


def bench_overhead(quick: bool) -> dict:
    """Wall-clock cost of running the same scenario with faults on."""
    clean_config = bench_config(quick)
    faulted_config = clean_config.with_overrides(**fault_overrides())
    samples = []
    for _ in range(TIMED_PAIRS):
        clean_s, _ = run_scenario(clean_config)
        faulted_s, faulted = run_scenario(faulted_config)
        samples.append((clean_s / faulted_s, clean_s, faulted_s))
    efficiency, clean_s, faulted_s = sorted(samples)[TIMED_PAIRS // 2]
    stats = faulted.stats("faults")
    return {
        "clean_s": round(clean_s, 4),
        "faulted_s": round(faulted_s, 4),
        "relative_run_efficiency": round(efficiency, 4),
        "availability": round(api.fault_availability(stats) or 1.0, 4),
        "edge_failures": int(stats["edge_failures"]),
        "node_failures": int(stats["node_failures"]),
    }


def bench_identity(quick: bool) -> dict:
    """The fault layer's standing byte-identity contracts."""
    config = bench_config(quick)
    _, plain = run_scenario(config)
    _, disabled = run_scenario(config.with_overrides(faults=None))
    faulted_config = config.with_overrides(**fault_overrides())
    _, serial = run_scenario(faulted_config, workers=1)
    _, parallel = run_scenario(faulted_config, workers=2)
    return {
        "fault_free_identical": payload(plain) == payload(disabled),
        "serial_parallel_identical": payload(serial) == payload(parallel),
    }


def run_benchmarks(quick: bool) -> dict:
    return {
        "meta": {
            "version": __version__,
            "quick": quick,
            "python": sys.version.split()[0],
        },
        "schedule": bench_schedule(quick),
        "overhead": bench_overhead(quick),
        "identity": bench_identity(quick),
    }


def check_against_baseline(results: dict, baseline: dict) -> list:
    """Regressions vs the committed baseline (see module docstring)."""
    failures = []
    baseline_quick = (baseline.get("meta") or {}).get("quick")
    if baseline_quick is not None and baseline_quick != results["meta"]["quick"]:
        return [
            "baseline was recorded with quick=%s but this run used quick=%s; "
            "compare like against like (benchmarks/BENCH_faults_quick.json "
            "is the quick-mode baseline)" % (baseline_quick, results["meta"]["quick"])
        ]
    if not results["identity"]["fault_free_identical"]:
        failures.append(
            "identity: a faults=None run diverged from the plain run "
            "(fault-free byte-identity break)"
        )
    if not results["identity"]["serial_parallel_identical"]:
        failures.append(
            "identity: serial and 2-worker fault-injected runs diverged "
            "(determinism break)"
        )
    for section, metric in (
        ("schedule", "relative_schedule_throughput"),
        ("overhead", "relative_run_efficiency"),
    ):
        current = results[section].get(metric)
        reference = (baseline.get(section) or {}).get(metric)
        if current is not None and reference is not None:
            if current < REGRESSION_FRACTION * reference:
                failures.append(
                    f"{section}: {metric} {current:.4f} fell below "
                    f"{REGRESSION_FRACTION:.0%} of baseline {reference:.4f}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale and shorter horizon for CI smoke runs")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the benchmark JSON to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail on an identity break or >20%% relative "
                             "regression vs this baseline JSON")
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
