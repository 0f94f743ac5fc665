"""Event-driven backend: what classical-signaling latency costs a QDN.

The slotted engine the paper evaluates on assumes entanglement outcomes are
known instantaneously.  The event-driven backend
(:mod:`repro.simulation.eventsim`) runs the *same* routing policies on a
wall clock: pairs are heralded one classical one-way latency after
generation, swap outcomes hop from node to node, and a request only counts
once its end-to-end confirmation beats the slot deadline.  This script

1. shows the two backends agreeing *exactly* at zero latency,
2. sweeps the latency to watch throughput decay as confirmations start
   missing the deadline, and
3. buys the losses back with a slot guard band.

Run it with::

    python examples/event_driven_backend.py
"""

from __future__ import annotations

from repro import api
from repro.network.channels import ATTEMPT_DURATION_S


def base_scenario() -> "api.Scenario":
    return (
        api.Scenario("event-backend")
        .with_topology(num_nodes=10, target_degree=3.5)
        .with_workload(horizon=12, min_pairs=1, max_pairs=3)
        .with_budget(400.0)
        .with_policies(("oscar", {"gibbs_iterations": 25}))
        .with_trials(1)
        .with_seed(7)
    )


def main() -> None:
    window = 4000 * ATTEMPT_DURATION_S  # one slot's attempt window, ~0.66 s

    # 1. Zero latency: the event backend consumes the identical random
    #    streams in the identical order, so the summaries match exactly.
    slotted = base_scenario().run()
    event = base_scenario().with_backend("event").run()
    assert slotted.summary() == event.summary()
    print("zero-latency equivalence: summaries identical on both backends\n")

    # 2. Sweep the one-way signaling latency as a fraction of the window.
    #    The slotted row is the latency-blind reference.
    print(f"{'latency':>10} {'throughput':>11} {'deadline misses':>16} {'msgs/delivery':>14}")
    for fraction in (0.0, 0.1, 0.25, 0.5):
        latency = fraction * window
        record = base_scenario().with_backend("event", latency=latency).run()
        stats = record.stats("eventsim")
        summary = record.summary()["OSCAR"]
        print(
            f"{latency:>9.3f}s "
            f"{summary['realized_success_rate'].mean:>11.3f} "
            f"{int(stats['deadline_misses']):>16d} "
            f"{stats['messages'] / max(stats['delivered'], 1):>14.2f}"
        )

    # 3. A guard band after the attempt window gives heralds and swap
    #    messages time to land: the losses at 10% latency disappear.
    guarded = (
        base_scenario()
        .with_backend("event", latency=0.1 * window, guard_time=2.0 * window)
        .run()
    )
    assert guarded.stats("eventsim")["deadline_misses"] == 0
    print("\nwith a 2-window guard band the 10% latency run misses no deadline")


if __name__ == "__main__":
    main()
