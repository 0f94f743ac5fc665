"""End-to-end benchmark of the reproduction, with per-layer attribution.

Run from the repository root::

    python3 e2ebench/run.py --workload fig3-oscar --seed 2024 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all          # every workload in turn

Each measured run is a fresh interpreter (``child.py``) on a scenario built
from the seed, with guard and telemetry off and their environment overrides
scrubbed.  One invocation launches a fixed number of such processes, each
on its own input derived from ``--seed``, sized so the invocation takes about
``--seconds`` seconds.  ``--trace 0`` prints the end-to-end metrics (the
mean of the processes, from four on without the fastest and the slowest,
or slot-gap percentiles and ratios pooled over them); ``--trace 1`` runs
untraced/traced pairs on the same inputs plus one run with the program's own
``light`` telemetry, and prints the per-layer metrics (means over the traced
processes, so the layer self times plus ``unattributed_s`` add up to
``ledger.run_s``).

Every line but the last is a human-readable report; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_TARGETS, SETUP_LAYERS, import_seconds  # noqa: E402
from workloads import DEFAULT_SEED, PROCESSES, child_seed  # noqa: E402

#: The ``--seconds`` that ``PROCESSES`` is sized for.
REFERENCE_SECONDS = 30

#: Seconds one measured process may take before it is killed.
CHILD_TIMEOUT_S = 150.0

#: Environment variables that would change the program being measured.
SCRUBBED_PREFIXES = ("REPRO_METRICS_",)
SCRUBBED_NAMES = ("REPRO_GUARD", "REPRO_TELEMETRY", "REPRO_FORCE_BREACH", "REPRO_BUNDLE_DIR")

#: Percentile reported as ``*_p99`` when enough samples exist.
TAIL = 0.99

#: Samples a tail percentile needs beyond it.
TAIL_SAMPLES = 10


# --------------------------------------------------------------------------- #
# Process management
# --------------------------------------------------------------------------- #
def child_env(root: Path) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in SCRUBBED_NAMES and not key.startswith(SCRUBBED_PREFIXES)
    }
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(
    root: Path, env: Dict[str, str], workload: str, seed: int, mode: str = "plain"
) -> Dict[str, object]:
    """Launch one measured process and return its parsed report.

    ``mode`` is ``plain``, ``trace`` or ``telemetry``.  On failure the
    report carries an ``error`` instead.
    """
    command = [sys.executable]
    if mode == "trace":
        command += ["-X", "importtime"]
    command += [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if mode != "plain":
        command.append(f"--{mode}")
    launch = time.monotonic()
    process = subprocess.Popen(
        command,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s", "seed": seed, "mode": mode}
    except BaseException:
        # Interrupted: never leave a measured process behind.
        process.kill()
        process.communicate()
        raise
    exit_time = time.monotonic()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {process.returncode}: {tail[0]}", "seed": seed, "mode": mode}
    report = json.loads(lines[-1])
    report["mode"] = mode
    # The report timings the child repeated are the benchmark's, not the program's.
    report["wall_s"] = exit_time - launch - report["repeat_s"]
    report["setup_s"] = report["t_first_slot"] - launch
    report["run_s"] = report["t_run_end"] - report["t_first_slot"]
    if mode == "trace":
        report["imports"] = import_seconds(stderr)
    return report


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def central_median(values: Sequence[float]) -> float:
    """The median, estimated as the interquartile mean (of p25 to p75).

    On fig3-oscar the raw median of the slot gaps is ill-conditioned: a slot
    carries 1 to 4 requests uniformly, and the solve time jumps from two
    requests (16 route combinations) to three (64), so half the slots fall
    on either side of a gap in the distribution and the raw median flips
    between its edges.  Resampling 12-topology runs from 117 measured
    topologies on a shared 2-core x86 box, the spread over ten runs was
    0.14 for the p40-p60 mean and 0.10 for this estimate.
    """
    ordered = sorted(values)
    low = int(0.25 * len(ordered))
    return statistics.fmean(ordered[low : max(low + 1, int(0.75 * len(ordered)))])


def tail_quantile(count: int) -> float:
    """``TAIL``, or the highest percentile with ``TAIL_SAMPLES`` samples beyond it."""
    if count <= 0:
        return TAIL
    return min(TAIL, math.floor(100.0 * (1.0 - TAIL_SAMPLES / count)) / 100.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def successes(report: Dict[str, object]) -> int:
    """Realized ECs: delivered ones when the physical layer is on."""
    totals = report["totals"]
    return totals["delivered"] if report.get("physical") else totals["realized"]


def stat(report: Dict[str, object], family: str, key: str) -> float:
    return float((report.get(family) or {}).get(key, 0.0))


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def check_report(report: Dict[str, object]) -> List[str]:
    """The checks one measured process must pass; returns the failures."""
    if "error" in report:
        return [f"seed {report['seed']} ({report['mode']}): {report['error']}"]
    label = f"seed {report['seed']} ({report['mode']})"
    problems = []
    totals = report["totals"]
    if report["completed_slots"] != report["expected_slots"]:
        problems.append(
            f"{label}: {report['completed_slots']} of {report['expected_slots']} slots completed"
        )
    if not totals["realized"] <= totals["served"] <= totals["arrived"]:
        problems.append(f"{label}: realized <= served <= arrived fails: {totals}")
    if report.get("physical") and totals["delivered"] > totals["realized"]:
        problems.append(f"{label}: more ECs delivered than realized: {totals}")
    if successes(report) <= 0:
        problems.append(f"{label}: no EC succeeded")
    serving = report.get("serving")
    if serving:
        sessions = serving["sessions_admitted"] + serving["sessions_rejected"]
        if sessions != serving["sessions_arrived"]:
            problems.append(f"{label}: admitted + rejected != arrived sessions")
        if not (
            serving["requests_realized"]
            <= serving["requests_served"]
            <= serving["requests_arrived"]
        ):
            problems.append(f"{label}: serving realized <= served <= arrived fails")
    return problems


def check_pairs(untraced: Sequence[dict], others: Sequence[dict]) -> List[str]:
    """Traced and telemetry runs must produce the untraced summary, digest for digest."""
    digests = {r["seed"]: r["digest"] for r in untraced if "error" not in r}
    problems = []
    for report in others:
        if "error" in report or report["seed"] not in digests:
            continue
        if report["digest"] != digests[report["seed"]]:
            problems.append(
                f"seed {report['seed']}: {report['mode']} summary differs from the untraced one"
            )
        layers = report.get("layers")
        if layers is not None:
            residual = report["run_s"] - sum(v["run"] for v in layers["self_s"].values())
            if residual < -1e-6:
                problems.append(f"seed {report['seed']}: layer self times exceed run_s")
    return problems


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def middle_mean(values: Iterable[float]) -> float:
    """Mean without the lowest and the highest value (from 4 values on).

    A median that still averages: on a shared machine whose speed swings by
    a third within seconds, a plain median of a handful of processes jumps
    between the fast and the slow mode, while dropping only the extremes
    keeps one process hit by a long stall from moving the result.
    """
    ordered = sorted(values)
    if len(ordered) >= 4:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def end_to_end(reports: Sequence[dict]) -> Dict[str, tuple]:
    """The 12 end-to-end metrics: name → (value, unit).

    Each process contributes one value per metric and :func:`middle_mean`
    combines them, except for the slot-gap percentiles, taken over the gaps
    of every process (the median by :func:`central_median`), and the last
    three, ratios pooled over every process.
    """
    gaps = [gap for r in reports for gap in r["slot_gaps_ms"]]
    arrived = sum(r["totals"]["arrived"] for r in reports)
    won = sum(successes(r) for r in reports)
    cost = sum(r["totals"]["cost"] for r in reports)
    budget = sum(r["totals"]["budget"] for r in reports)

    def combined(metric: Callable[[dict], float]) -> float:
        return middle_mean(metric(r) for r in reports)

    return {
        "setup_s": (combined(lambda r: r["setup_s"]), "s"),
        "run_s": (combined(lambda r: r["run_s"]), "s"),
        "report_s": (combined(lambda r: r["report_s"]), "s"),
        "wall_s": (combined(lambda r: r["wall_s"]), "s"),
        "slots_per_s": (combined(lambda r: (r["completed_slots"] - 1) / r["run_s"]), "1/s"),
        "requests_per_s": (combined(lambda r: r["totals"]["arrived"] / r["run_s"]), "1/s"),
        "slot_ms_p50": (central_median(gaps), "ms"),
        "slot_ms_p99": (percentile(gaps, tail_quantile(len(gaps))), "ms"),
        "peak_rss_mb": (combined(lambda r: r["peak_rss_mb"]), "MB"),
        "ec_success_frac": (ratio(won, arrived), "frac"),
        "cost_per_success": (ratio(cost, won), "qubits"),
        "budget_spent_frac": (ratio(cost, budget), "frac"),
    }


def per_layer(traced: Sequence[dict], untraced: Sequence[dict]) -> Dict[str, tuple]:
    """The per-layer metrics: means over the traced processes (see module doc).

    ``records.*`` come from the untraced processes, whose report phase no
    wrapper slows.
    """
    count = len(traced)

    def mean(values) -> float:
        return sum(values) / count

    def self_time(layer: str, phase: str) -> float:
        return mean(r["layers"]["self_s"][layer][phase] for r in traced)

    def pooled(family: str, numerator: Sequence[str], denominator: Sequence[str]) -> float:
        top = sum(stat(r, family, key) for r in traced for key in numerator)
        return ratio(top, sum(stat(r, family, key) for r in traced for key in denominator))

    run_s = mean(r["run_s"] for r in traced)
    setup_s = mean(r["setup_s"] for r in traced)
    import_repro = mean(r["imports"]["repro"] for r in traced)
    decide_ms = [ms for r in traced for ms in r["layers"]["call_ms"]["core.decide"]]
    metrics: Dict[str, tuple] = {
        "ledger.setup_s": (setup_s, "s"),
        "ledger.run_s": (run_s, "s"),
        "import.repro_s": (import_repro, "s"),
        "import.scipy_s": (mean(r["imports"]["scipy"] for r in traced), "s"),
    }
    for layer in LAYER_TARGETS:
        metrics[f"{layer}_s"] = (self_time(layer, "run"), "s")
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}_s"] = (self_time(layer, "setup"), "s")
    other = sum(self_time(layer, "setup") for layer in LAYER_TARGETS if layer not in SETUP_LAYERS)
    metrics["setup.other_layers_s"] = (other, "s")
    metrics["setup.unattributed_s"] = (
        setup_s - import_repro - sum(self_time(layer, "setup") for layer in LAYER_TARGETS),
        "s",
    )
    metrics["unattributed_s"] = (
        run_s - sum(self_time(layer, "run") for layer in LAYER_TARGETS),
        "s",
    )
    metrics["trace_overhead_frac"] = (
        ratio(run_s, statistics.fmean(r["run_s"] for r in untraced)) - 1.0,
        "frac",
    )
    metrics["workload.routes_for_calls"] = (
        mean(r["layers"]["calls"]["workload.routes_for"] for r in traced),
        "count",
    )
    metrics["core.decide_calls"] = (mean(r["layers"]["calls"]["core.decide"] for r in traced), "count")
    metrics["core.decide_ms_p50"] = (central_median(decide_ms) if decide_ms else 0.0, "ms")
    metrics["core.decide_ms_p99"] = (
        percentile(decide_ms, tail_quantile(len(decide_ms))) if decide_ms else 0.0,
        "ms",
    )
    metrics.update(
        {
            "solvers.solves": (mean(stat(r, "kernel", "solves") for r in traced), "count"),
            "solvers.dual_iterations": (
                mean(stat(r, "kernel", "dual_iterations") for r in traced),
                "count",
            ),
            "solvers.structure_compiles": (
                mean(stat(r, "kernel", "structure_compiles") for r in traced),
                "count",
            ),
            "solvers.pruned_frac": (pooled("kernel", ["pruned"], ["solves"]), "frac"),
            "solvers.cache_hit_frac": (
                pooled("kernel", ["cache_hits"], ["cache_hits", "solves"]),
                "frac",
            ),
            "solvers.exhaustive_slot_frac": (
                pooled(
                    "kernel",
                    ["exhaustive_slots"],
                    ["exhaustive_slots", "gibbs_slots", "greedy_slots"],
                ),
                "frac",
            ),
            "link.success_frac": (
                ratio(
                    sum(r["totals"]["realized"] for r in traced),
                    sum(r["totals"]["served"] for r in traced),
                ),
                "frac",
            ),
            "physical.delivered_frac": (pooled("physical", ["delivered"], ["requests"]), "frac"),
            "physical.pairs_per_delivery": (
                pooled("physical", ["pairs_consumed"], ["delivered"]),
                "count",
            ),
            "eventsim.events": (mean(stat(r, "eventsim", "events") for r in traced), "count"),
            "eventsim.deadline_miss_frac": (
                pooled("eventsim", ["deadline_misses"], ["delivered", "deadline_misses"]),
                "frac",
            ),
            "faults.availability": (mean(r["availability"] or 0.0 for r in traced), "frac"),
            "serving.admit_frac": (
                pooled("serving", ["sessions_admitted"], ["sessions_arrived"]),
                "frac",
            ),
            "records.summary_s": (statistics.fmean(r["summary_s"] for r in untraced), "s"),
            "records.to_dict_s": (statistics.fmean(r["to_dict_s"] for r in untraced), "s"),
            "records.json_mb": (statistics.fmean(r["json_mb"] for r in untraced), "MB"),
        }
    )
    return metrics


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def print_metrics(metrics: Dict[str, tuple]) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def print_ledger(metrics: Dict[str, tuple], traced: Sequence[dict], telemetry: Optional[dict]) -> None:
    run_s = metrics["ledger.run_s"][0]
    print(f"run-phase ledger (share of ledger.run_s = {run_s:.4g} s):")
    shares = {layer: metrics[f"{layer}_s"][0] for layer in LAYER_TARGETS}
    shares["unattributed"] = metrics["unattributed_s"][0]
    for layer, seconds in sorted(shares.items(), key=lambda item: -item[1]):
        if seconds > 0:
            print(f"  {layer:<24} {seconds:9.4f} s  {100.0 * ratio(seconds, run_s):5.1f}%")
    kernel = sum(shares[layer] for layer in LAYER_TARGETS if layer.split(".")[0] in ("core", "solvers"))
    print(f"  core + solvers share of run_s: {100.0 * ratio(kernel, run_s):.1f}%")
    print(f"  kernel solves per process: {metrics['solvers.solves'][0]:.0f}")
    missing = sorted({m for r in traced for m in r.get("missing_targets", [])})
    if missing:
        print(f"  wrap targets not found (their layers read 0): {', '.join(missing)}")
    if telemetry is not None and "error" not in telemetry:
        # Whole decide calls, nested solver time included, like the span.
        outside_s = sum(traced[0]["layers"]["call_ms"]["core.decide"]) / 1000.0
        inside = telemetry.get("kernel_solve_s")
        if inside:
            print(
                f"  outside core.decide {outside_s:.4f} s vs telemetry kernel.solve "
                f"{inside:.4f} s (seed {telemetry['seed']}, ratio {outside_s / inside:.3f})"
            )
        else:
            print("  telemetry recorded no kernel.solve span on this workload")


def run_workload(root: Path, env: Dict[str, str], name: str, seed: int, seconds: int, trace: bool) -> dict:
    processes = max(1, round(PROCESSES[name] * seconds / REFERENCE_SECONDS))
    seeds = [child_seed(seed, index) for index in range(processes)]
    print(f"== {name}: seed {seed}, {processes} process(es), trace {int(trace)}")
    untraced: List[dict] = []
    traced: List[dict] = []
    telemetry: Optional[dict] = None
    if trace:
        for child in seeds[: max(1, processes // 2)]:
            untraced.append(run_child(root, env, name, child))
            traced.append(run_child(root, env, name, child, mode="trace"))
        telemetry = run_child(root, env, name, seeds[0], mode="telemetry")
    else:
        untraced = [run_child(root, env, name, child) for child in seeds]

    reports = untraced + traced + ([telemetry] if telemetry is not None else [])
    problems = [p for report in reports for p in check_report(report)]
    problems += check_pairs(untraced, traced + ([telemetry] if telemetry else []))
    good = [r for r in reports if "error" not in r]
    attempted = sum(r["completed_slots"] for r in good) + sum(
        1 for r in reports if "error" in r
    )
    failed = sum(1 for r in reports if "error" in r) + sum(
        r["expected_slots"] - r["completed_slots"] for r in good
    )

    metrics: Dict[str, tuple] = {}
    plain = [r for r in untraced if "error" not in r]
    if not problems and plain:
        if trace:
            metrics = per_layer([r for r in traced if "error" not in r], plain)
        else:
            metrics = end_to_end(plain)
        for r in reports:
            print(
                f"  process seed {r['seed']} {r['mode']:<9} setup {r['setup_s']:.3f} s, "
                f"run {r['run_s']:.3f} s, report {r['report_s']:.3f} s, wall {r['wall_s']:.3f} s"
            )
        arrived = sum(r["totals"]["arrived"] for r in plain)
        print(f"requests_attempted {arrived}, requests_failed {arrived - sum(successes(r) for r in plain)}")
        gaps = sum(len(r["slot_gaps_ms"]) for r in plain)
        print(
            f"slot gaps over all processes: {gaps}; slot_ms_p50 is their interquartile "
            f"mean, slot_ms_p99 their p{100 * tail_quantile(gaps):.0f} "
            f"(at least {TAIL_SAMPLES} samples beyond)"
        )
        print_metrics(metrics)
        if trace:
            print_ledger(metrics, traced, telemetry)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the reproduction.")
    parser.add_argument("--workload", default="all", choices=["all", *PROCESSES])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    # Byte-compile once up front, so no measured process pays for it.  Best
    # effort: a source tree that cannot be written is measured as it is.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "repro")],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    names = list(PROCESSES) if args.workload == "all" else [args.workload]
    results = [
        run_workload(root, env, name, args.seed, args.seconds, bool(args.trace)) for name in names
    ]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
