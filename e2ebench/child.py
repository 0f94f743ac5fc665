"""One measured process: build a workload, run it, report, print one JSON line.

Run by ``run.py`` in a fresh interpreter, so every measured run pays import
and the cold topology store, the way a command-line user does::

    PYTHONPATH=src python3 e2ebench/child.py --workload fig3-oscar --seed 2024000

``--trace`` wraps the layer entry points (see ``layers.py``); run it under
``python3 -X importtime`` to also get import times.  ``--telemetry`` runs the
scenario with the program's own ``light`` telemetry instead, to compare its
``kernel.solve`` span total with the outside ``core.decide`` time.

All times are ``time.monotonic()`` stamps, which share one clock with the
parent process on Linux; the parent turns them into durations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time


def _slot_totals(record) -> dict:
    """Request flow, cost and budget summed over every trial and line-up entry."""
    totals = {
        "arrived": 0, "served": 0, "realized": 0, "delivered": 0,
        "cost": 0.0, "budget": 0.0,
    }
    for trial in record.trials:
        for result in trial.values():
            totals["budget"] += float(result.total_budget)
            for slot in result.records:
                totals["arrived"] += slot.num_requests
                totals["served"] += slot.num_served
                totals["realized"] += sum(slot.realized_successes)
                totals["delivered"] += sum(slot.delivered_successes)
                totals["cost"] += float(slot.cost)
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--telemetry", action="store_true")
    args = parser.parse_args(argv)

    from workloads import REPORT_REPEATS, build_scenario

    from repro import api

    ledger = None
    missing = []
    if args.trace:
        import layers

        ledger = layers.SpanLedger()
        missing = layers.install(ledger)

    scenario = build_scenario(args.workload, args.seed)
    if args.telemetry:
        scenario = scenario.with_telemetry("light")
    expected_slots = (
        scenario.config.horizon * len(scenario.lineup_names()) * scenario.config.trials
    )

    stamps = []

    def on_event(event) -> None:
        if isinstance(event, api.SlotCompleted):
            now = time.monotonic()
            if not stamps:
                if ledger is not None:
                    ledger.run_start = now
                    print(layers.RUN_MARKER, file=sys.stderr, flush=True)
            stamps.append(now)

    record = api.Session(observers=[api.CallbackObserver(on_event)]).run(scenario)
    run_end = time.monotonic()
    if ledger is not None:
        ledger.run_end = run_end

    summary = record.format_summary()
    summary_end = time.monotonic()
    json_mb = len(json.dumps(record.to_dict())) / 1e6
    report_end = time.monotonic()
    summary_times = [summary_end - run_end]
    to_dict_times = [report_end - summary_end]
    # Short reports (about 30 ms on fig3-oscar) swing by half from one call
    # to the next on a shared machine, so they are timed again and the mean
    # kept.  The repetitions are not part of the program: their time is
    # reported so it can be taken off wall_s.
    while len(summary_times) < REPORT_REPEATS[args.workload]:
        start = time.monotonic()
        record.format_summary()
        middle = time.monotonic()
        json.dumps(record.to_dict())
        summary_times.append(middle - start)
        to_dict_times.append(time.monotonic() - middle)

    totals = _slot_totals(record)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "expected_slots": expected_slots,
        "t_first_slot": stamps[0] if stamps else run_end,
        "t_run_end": run_end,
        "report_s": statistics.fmean(s + d for s, d in zip(summary_times, to_dict_times)),
        "repeat_s": time.monotonic() - report_end,
        "summary_s": statistics.fmean(summary_times),
        "to_dict_s": statistics.fmean(to_dict_times),
        "json_mb": json_mb,
        "slot_gaps_ms": [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])],
        "completed_slots": len(stamps),
        "digest": hashlib.sha256(summary.encode()).hexdigest(),
        "totals": totals,
        "kernel": record.kernel_stats(),
        "physical": record.physical_stats(),
        "eventsim": record.event_stats(),
        "faults": record.fault_stats(),
        "serving": record.serving_stats(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out["availability"] = api.fault_availability(out["faults"])
    if ledger is not None:
        out["layers"] = ledger.report()
        out["missing_targets"] = missing
    if args.telemetry:
        telemetry = record.telemetry_stats() or {}
        out["kernel_solve_s"] = telemetry.get("span.kernel.solve.wall_s")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
