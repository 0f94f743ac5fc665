"""Streaming serving: an open QDN where users come and go mid-run.

The paper's experiments replay a *closed* workload — every slot's request
set is frozen before the run starts.  The serving layer
(:mod:`repro.serving`) opens the system: sessions join as a Poisson
stream, issue EC requests at their own rate for a geometric lifetime,
optionally renew, and depart; an admission controller gates each join on
the Lyapunov virtual-queue backlog.  This script

1. runs an open-door serving scenario and reads the end-to-end metrics
   (sojourn, Jain fairness, sustained requests/s),
2. contrasts merge windows: admission once per 5-slot window reproduces
   the every-slot run byte for byte under always-admit, and changes who
   gets in under a binding backlog threshold,
3. compares admission policies under overload, and
4. sweeps the arrival rate through the ``serving.*`` study axis.

Run it with::

    python examples/streaming_serving.py
"""

from __future__ import annotations

import json

from repro import api
from repro.api.records import trial_to_dict


def base_scenario() -> "api.Scenario":
    return (
        api.Scenario("streaming-serving")
        .with_topology(num_nodes=10, target_degree=3.5)
        .with_workload(horizon=40)
        .with_budget(3000.0)
        .with_serving(
            arrival_rate=1.5,       # mean session joins per slot
            session_rate=2.5,       # mean EC requests per session per slot
            session_lifetime=12.0,  # mean lifetime in slots (geometric)
            renew_probability=0.25,
            session_budget=10.0,    # qubits one session may spend per slot
        )
        .with_trials(1)
        .with_seed(11)
    )


def payload(record: "api.RunRecord") -> str:
    return json.dumps(trial_to_dict(record.trials[0]), sort_keys=True)


def main() -> None:
    # 1. One open-system run, end to end.
    record = base_scenario().run()
    stats = record.stats("serving")
    print(record.format_summary(title="Open-system serving run"))
    print()
    print(f"sessions: {int(stats['sessions_admitted'])} admitted, "
          f"{int(stats['sessions_rejected'])} rejected, "
          f"{int(stats['sessions_renewed'])} renewed, "
          f"{int(stats['sessions_departed'])} departed")
    print(f"requests: {int(stats['requests_served'])}/{int(stats['requests_arrived'])} "
          f"served, mean sojourn {api.mean_sojourn_slots(stats):.2f} slot(s)")
    print(f"fairness: Jain {api.jain_fairness(stats):.3f}")
    print(f"throughput: {record.requests_per_second():.1f} requests/s over "
          f"{record.wall_time_s():.1f} simulated seconds")

    # 2. The merge window sets how stale admission's view is.  Always-admit
    #    never reads that view; a binding backlog threshold does.
    def windowed(admission: str, merge_every: int) -> "api.RunRecord":
        return (
            base_scenario()
            .with_serving(
                admission=admission, admission_threshold=50.0, merge_every=merge_every
            )
            .run()
        )

    assert payload(windowed("always", 1)) == payload(windowed("always", 5))
    print("\nalways-admit: a 5-slot merge window is byte-identical to every slot")
    for merge_every in (1, 5):
        s = windowed("backlog-threshold", merge_every).stats("serving")
        print(f"  backlog-threshold, merge_every={merge_every}: "
              f"admitted {int(s['sessions_admitted']):3d} "
              f"rejected {int(s['sessions_rejected']):3d} "
              f"served {int(s['requests_served']):4d}")

    # 3. Admission policies under overload.
    print("\nAdmission under overload (arrival_rate=4):")
    for admission in ("always", "backlog-threshold", "token-bucket"):
        overloaded = (
            base_scenario()
            .with_serving(
                arrival_rate=4.0,
                admission=admission,
                admission_threshold=50.0,
                token_rate=0.5,
                token_burst=2.0,
            )
            .run()
        )
        s = overloaded.stats("serving")
        print(f"  {admission:18s} admitted {int(s['sessions_admitted']):3d} "
              f"rejected {int(s['sessions_rejected']):3d} "
              f"served {int(s['requests_served']):4d} "
              f"Jain {api.jain_fairness(s):.3f}")

    # 4. The serving axis group composes with the study machinery.
    result = (
        api.Study("arrival-sweep")
        .base(base_scenario())
        .over("serving.arrival_rate", [0.5, 1.5, 3.0], label="lambda")
        .run()
    )
    print()
    print(result.format_summary(metrics=("served_fraction", "total_cost")))


if __name__ == "__main__":
    main()
