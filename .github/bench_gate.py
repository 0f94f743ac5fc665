"""CI gate on the end-to-end benchmark: the merge base against the head.

Runs the head's ``e2ebench/run.py --workload all`` with the merge base's
checkout as the working directory and with the head's, in three pairs,
alternating which side goes first.  The harness is the head's on both
sides, so both trees are measured the same way.  The gate fails when

* a head run fails an output check (``"correct": false``, or no result
  line for a workload); it stops at the first such run, or
* the head's median of an ``end_to_end`` metric of the base's
  ``BENCHMARK.json`` is worse than the base's median by more than that
  metric's ``bound`` (a fraction of the base median), in the direction
  ``better`` gives.  The bounds are read from the base, so a change cannot
  loosen its own gate.

It prints both medians of every metric on every workload and writes them,
with every run's value, to ``--report``.  Standard library only.

Usage, from any directory::

    git worktree add /tmp/base "$(git merge-base origin/main HEAD)"
    python .github/bench_gate.py --base /tmp/base --head . --report gate.json
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Base/head pairs of ``--workload all`` runs.
PAIRS = 3

#: Workload → its result line (``correct``, ``metrics``, …) of one run.
Run = Dict[str, dict]


def run_benchmark(harness: Path, tree: Path) -> Run:
    """One ``--workload all`` run of ``harness`` on the checkout ``tree``."""
    completed = subprocess.run(
        [sys.executable, str(harness), "--workload", "all"],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    print(completed.stdout, end="", flush=True)
    lines = completed.stdout.splitlines()
    # The harness opens each workload with "== <name>: ..." and ends with
    # one JSON result line per workload, in the same order.
    names = [line[3:].split(":", 1)[0] for line in lines if line.startswith("== ")]
    results = [json.loads(line) for line in lines if line.startswith("{")]
    if len(results) != len(names):
        return {}
    return dict(zip(names, results))


def broken_workloads(run: Run, workloads: List[str]) -> List[str]:
    return [name for name in workloads if not run.get(name, {}).get("correct")]


def values(runs: List[Run], workload: str, metric: str) -> List[float]:
    """The metric's value in every run that passed its checks."""
    return [
        run[workload]["metrics"][metric]["value"]
        for run in runs
        if run.get(workload, {}).get("correct") and metric in run[workload]["metrics"]
    ]


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``."""
    delta = head - base if better == "lower" else base - head
    if base == 0.0:
        return 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def compare(spec: dict, workloads: List[str], runs: Dict[str, List[Run]]) -> List[dict]:
    """One row per workload and end-to-end metric, with its verdict."""
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = values(runs["base"], workload, name)
            head = values(runs["head"], workload, name)
            row = {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "base": base,
                "head": head,
            }
            if base and head:
                row["base_median"] = statistics.median(base)
                row["head_median"] = statistics.median(head)
                row["worse_by"] = worse_by(row["base_median"], row["head_median"], metric["better"])
                row["ok"] = row["worse_by"] <= metric["bound"]
            rows.append(row)
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':<13} {'metric':<18} {'base median':>13} {'head median':>13} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        if "ok" not in row:
            print(f"{row['workload']:<13} {row['metric']:<18} not compared: a side has no value")
            continue
        verdict = "ok" if row["ok"] else "WORSE"
        if row["base_median"] == row["head_median"]:
            verdict += " (identical)"
        print(
            f"{row['workload']:<13} {row['metric']:<18} "
            f"{row['base_median']:>13.6g} {row['head_median']:>13.6g} "
            f"{100.0 * row['worse_by']:>+8.1f}% {100.0 * row['bound']:>5.0f}%  {verdict}"
        )


def write_report(path: Optional[Path], report: dict) -> None:
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the merge base")
    parser.add_argument("--head", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--report", type=Path, default=None, help="write the gate report JSON here")
    args = parser.parse_args(argv)

    base_tree, head_tree = args.base.resolve(), args.head.resolve()
    harness = head_tree / "e2ebench" / "run.py"
    spec = json.loads((base_tree / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    runs: Dict[str, List[Run]] = {"base": [], "head": []}
    report = {"base": str(base_tree), "head": str(head_tree), "pairs": PAIRS, "failures": []}

    for pair in range(PAIRS):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            print(f"[gate] pair {pair + 1} of {PAIRS}: {side}", flush=True)
            run = run_benchmark(harness, base_tree if side == "base" else head_tree)
            runs[side].append(run)
            broken = broken_workloads(run, workloads)
            if broken and side == "head":
                report["failures"].append(
                    f"head run {len(runs['head'])} failed its output checks on {', '.join(broken)}"
                )
                report["runs"] = runs
                write_report(args.report, report)
                print(f"GATE FAILED: {report['failures'][0]}")
                return 1
            if broken:
                print(f"[gate] base run failed its checks on {', '.join(broken)}; left out")

    rows = compare(spec, workloads, runs)
    print_rows(rows)
    report["rows"] = rows
    report["failures"] = [
        f"{row['workload']} {row['metric']}: head median {row['head_median']:.6g} "
        f"{row['unit']} is worse than base median {row['base_median']:.6g} "
        f"by {100.0 * row['worse_by']:.1f}% (bound {100.0 * row['bound']:.0f}%)"
        for row in rows
        if row.get("ok") is False
    ]
    write_report(args.report, report)
    for failure in report["failures"]:
        print(f"GATE FAILED: {failure}")
    if not report["failures"]:
        print(f"gate passed: no end-to-end metric worse than its bound over {PAIRS} pairs")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
