"""Fault injection: reproducible outages and graceful degradation.

The paper's experiments assume a network that never breaks.  The fault
layer (:mod:`repro.faults`) drops that assumption without dropping
determinism: seeded MTBF/MTTR outage processes and scripted one-shot
failures are precompiled into a per-slot schedule drawn from its own
spawned seed stream, so the same seed gives the same outages on any
worker layout — and a fault-free run stays byte-identical to the
historical tables.  This script

1. runs a fault-injected scenario and reads the availability accounting,
2. contrasts degradation-**aware** routing (failed elements leave the
   candidate sets, policies reroute) with degradation-**blind** routing
   (requests on a failed route are lost at realization time),
3. caps the per-slot solve with a deadline and watches the solver walk
   the exhaustive → Gibbs → greedy ladder,
4. checkpoints a run, "interrupts" it, and resumes byte-identically, and
5. sweeps the outage rate through the ``faults.*`` study axis
   (``python -m repro figure fig11`` is the full version).

Run it with::

    python examples/fault_injection.py
"""

from __future__ import annotations

import json

from repro import api


def base_scenario(aware: bool = True) -> "api.Scenario":
    return (
        api.Scenario("fault-injection")
        .with_topology(num_nodes=8, target_degree=3.0)
        .with_workload(horizon=30)
        .with_policies("oscar")
        .with_trials(2)
        .with_seed(7)
        .with_faults(
            edge_mtbf=25.0,          # mean up-time per edge, in slots
            node_mtbf=80.0,          # mean up-time per node
            mttr=4.0,                # mean down-time once failed
            outages=[["node", "3", 10, 5]],  # scripted: node 3 dark at t=10
            aware=aware,
        )
    )


def payload(record: "api.RunRecord") -> str:
    body = record.to_dict()
    body.pop("meta", None)  # meta carries wall-clock timings
    return json.dumps(body, sort_keys=True)


def main() -> None:
    # 1. One fault-injected run, end to end.
    record = base_scenario().run()
    stats = record.stats("faults")
    print(record.format_summary(title="Fault-injected run (degradation-aware)"))
    print()
    print(f"availability: {api.fault_availability(stats):.3f} "
          f"({int(stats['down_element_slots'])} of {int(stats['element_slots'])} "
          f"element-slots down)")
    print(f"outages: {int(stats['node_failures'])} node, "
          f"{int(stats['edge_failures'])} edge; "
          f"{int(stats['repairs'])} repair(s)")
    print(f"impact: {int(stats['requests_unservable'])} unservable, "
          f"{int(stats['requests_interrupted'])} interrupted request(s)")

    # 2. Aware vs blind degradation under the *same* outage schedule.
    blind = base_scenario(aware=False).run()
    blind_stats = blind.stats("faults")
    assert blind_stats["down_element_slots"] == stats["down_element_slots"]
    print("\nSame schedule, opposite degradation modes:")
    for label, rec in (("aware", record), ("blind", blind)):
        s = rec.stats("faults")
        rate = rec.summary()["OSCAR"]["realized_success_rate"].mean
        print(f"  {label:5s} success rate {rate:.3f}  "
              f"unservable {int(s['requests_unservable']):3d}  "
              f"interrupted {int(s['requests_interrupted']):3d}")

    # 3. The degradation ladder: cap the per-slot solve budget and the
    # solver falls back exhaustive -> Gibbs -> greedy, deterministically.
    capped = base_scenario().with_solver(solve_deadline=12).run()
    kernel = capped.stats("kernel")
    print(f"\nsolve_deadline=12: {int(kernel.get('deadline_gibbs_fallbacks', 0))} "
          f"Gibbs fallback(s), {int(kernel.get('deadline_greedy_fallbacks', 0))} "
          f"greedy fallback(s)")

    # 4. Checkpoint/resume.  A real run wires InterruptGuard to SIGINT
    # (the CLI's --checkpoint flag does exactly this); here a stop flag
    # plays the role of Ctrl-C after the second trial.
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = api.RunCheckpoint(Path(tmp) / "run.ckpt.json")
        scenario = base_scenario().with_trials(4)
        clean = api.run_scenario(scenario)

        calls = {"n": 0}

        def interrupt_after_two() -> bool:
            calls["n"] += 1
            return calls["n"] > 2

        partial = api.run_scenario(
            scenario, checkpoint=checkpoint, stop_flag=interrupt_after_two
        )
        resumed = api.run_scenario(scenario, checkpoint=checkpoint)
        assert payload(resumed) == payload(clean)
        print(f"\ncheckpoint/resume: stopped after "
              f"{partial.meta['completed_trials']} trial(s), resumed "
              f"{resumed.meta['resumed_trials']}, final tables byte-identical")

    # 5. The faults axis group composes with the study machinery.
    result = (
        api.Study("outage-sweep")
        .base(base_scenario().with_trials(1))
        .over("faults.edge_mtbf", [100.0, 25.0, 10.0], label="edge_mtbf")
        .run()
    )
    print()
    print(result.format_summary(metrics=("realized_success_rate",)))


if __name__ == "__main__":
    main()
