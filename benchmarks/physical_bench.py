"""Tracked benchmark of the physical-layer engines: vectorized vs. reference.

Two measurements, both asserting bit-identical results between the engines:

* **engine** — the physical delivery chain alone at fig6 scale: the same
  synthetic slot batches (requests per slot, hop counts and channel
  allocations shaped like the Figure-6 sweep's workload) run through the
  per-pair :class:`ReferencePhysicalEngine` (one scalar RNG round-trip per
  purification round / swap chain) and the batched
  :class:`VectorizedPhysicalEngine` (one ``Generator.random(n)`` draw per
  slot).  The headline number is the vectorized speedup.
* **fig6 end-to-end** — the Figure-6 network-size sweep with the physical
  layer enabled (purification, decoherence, swapping, fidelity target) on
  both engines, asserting their summary tables are byte-identical.  The
  solver dominates this wall clock, so the speedup here is a sanity bound,
  not the headline.

Writes the numbers to ``BENCH_physical.json`` (``--output``); with ``--check
BASELINE.json`` it exits non-zero when the engines diverge, the fig6 tables
diverge, or the engine speedup falls below 80 % of the committed baseline's
(ratios, not absolute times, so the check is stable across machines).

Usage::

    PYTHONPATH=src python benchmarks/physical_bench.py --output BENCH_physical.json
    PYTHONPATH=src python benchmarks/physical_bench.py --quick --check benchmarks/BENCH_physical_quick.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments import fig6_network_size
from repro.experiments.config import ExperimentConfig
from repro.network.routes import Route
from repro.network.store import default_topology_store
from repro.simulation.physical import (
    PhysicalModel,
    ReferencePhysicalEngine,
    VectorizedPhysicalEngine,
)
from repro.utils.rng import spawn_rngs
from repro.version import __version__

#: Regression threshold: fail when the engine speedup drops below this
#: fraction of the committed baseline's speedup.
REGRESSION_FRACTION = 0.8


def bench_model() -> PhysicalModel:
    """The physical configuration under benchmark (everything switched on)."""
    return PhysicalModel(
        swap_success=0.95,
        link_fidelity=0.96,
        purify_rounds=2,
        cutoff_fidelity=0.4,
        fidelity_target=0.6,
    )


def make_slot_batches(slots: int, requests_per_slot: int, seed: int = 2024):
    """Synthetic slot inputs shaped like the fig6 sweep's workload."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(slots):
        items = []
        for _ in range(requests_per_slot):
            hops = int(rng.integers(1, 6))
            route = Route.from_nodes(list(range(hops + 1)))
            allocation = {key: int(rng.integers(1, 7)) for key in route.edges}
            items.append((route, allocation, bool(rng.random() >= 0.2)))
        batches.append(items)
    return batches


def run_engine(engine, batches, seed: int = 7):
    """One engine pass over every batch; returns (seconds, outcomes)."""
    streams = spawn_rngs(seed, len(batches))
    started = time.perf_counter()
    outcomes = [
        engine.realize_slot(items, seed=stream)
        for items, stream in zip(batches, streams)
    ]
    return time.perf_counter() - started, outcomes


def bench_engines(quick: bool, repeats: int) -> dict:
    model = bench_model()
    batches = make_slot_batches(
        slots=400 if quick else 2000, requests_per_slot=8
    )

    reference_s = float("inf")
    vectorized_s = float("inf")
    identical = True
    for _ in range(repeats):
        reference = ReferencePhysicalEngine(model)
        vectorized = VectorizedPhysicalEngine(model)
        seconds, reference_outcomes = run_engine(reference, batches)
        reference_s = min(reference_s, seconds)
        seconds, vectorized_outcomes = run_engine(vectorized, batches)
        vectorized_s = min(vectorized_s, seconds)
        identical = identical and (
            reference_outcomes == vectorized_outcomes
            and reference.stats == vectorized.stats
        )

    slot_count = len(batches)
    return {
        "slots": slot_count,
        "requests_per_slot": 8,
        "reference_s": round(reference_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(reference_s / vectorized_s, 3),
        "reference_slots_per_s": round(slot_count / reference_s, 1),
        "vectorized_slots_per_s": round(slot_count / vectorized_s, 1),
        "outcomes_identical": identical,
    }


def fig6_config(quick: bool, engine: str) -> ExperimentConfig:
    """The reduced-scale fig6 configuration with the physical layer enabled."""
    return ExperimentConfig(
        num_nodes=9,
        horizon=8 if quick else 12,
        total_budget=500.0,
        trials=1,
        max_pairs=4,
        gibbs_iterations=20,
        num_candidate_routes=3,
        trade_off_v=2500.0,
        initial_queue=10.0,
        gamma=500.0,
        base_seed=2024,
        physical=PhysicalModel(
            swap_success=0.95, purify_rounds=2, fidelity_target=0.6, engine=engine
        ),
    )


def bench_fig6(quick: bool, engine: str, sizes) -> tuple:
    default_topology_store.clear()
    started = time.perf_counter()
    result = fig6_network_size.run(config=fig6_config(quick, engine), sizes=sizes, seed=7)
    return time.perf_counter() - started, result.format_tables()


def run_benchmarks(quick: bool) -> dict:
    repeats = 2 if quick else 3
    sizes = (8, 12) if quick else (8, 12, 16)

    engine_results = bench_engines(quick, repeats)
    vectorized_s, vectorized_tables = bench_fig6(quick, "vectorized", sizes)
    reference_s, reference_tables = bench_fig6(quick, "reference", sizes)

    return {
        "meta": {
            "version": __version__,
            "quick": quick,
            "python": sys.version.split()[0],
        },
        "engine": engine_results,
        "fig6": {
            "sizes": list(sizes),
            "vectorized_s": round(vectorized_s, 3),
            "reference_s": round(reference_s, 3),
            "speedup": round(reference_s / vectorized_s, 3),
            "tables_identical": vectorized_tables == reference_tables,
        },
    }


def check_against_baseline(results: dict, baseline: dict) -> list:
    """Regressions vs the committed baseline (see module docstring)."""
    failures = []
    baseline_quick = (baseline.get("meta") or {}).get("quick")
    if baseline_quick is not None and baseline_quick != results["meta"]["quick"]:
        return [
            "baseline was recorded with quick=%s but this run used quick=%s; "
            "compare like against like (benchmarks/BENCH_physical_quick.json "
            "is the quick-mode baseline)" % (baseline_quick, results["meta"]["quick"])
        ]
    if not results["engine"]["outcomes_identical"]:
        failures.append("engine: vectorized and reference outcomes diverged")
    if not results["fig6"]["tables_identical"]:
        failures.append("fig6: vectorized and reference summary tables diverged")
    current = (results.get("engine") or {}).get("speedup")
    reference = (baseline.get("engine") or {}).get("speedup")
    if current is not None and reference is not None:
        if current < REGRESSION_FRACTION * reference:
            failures.append(
                f"engine: vectorized speedup {current:.2f}x fell below "
                f"{REGRESSION_FRACTION:.0%} of baseline {reference:.2f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller batches and sweep for CI smoke runs")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the benchmark JSON to this file")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail on divergence or >20%% speedup regression "
                             "vs this baseline JSON")
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
