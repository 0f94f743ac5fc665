"""The slot-based QDN simulator.

This is the evaluation harness of the paper: for every slot it presents the
policy with the slot's EC requests, resource availability and candidate
routes (all frozen in a :class:`~repro.workload.traces.WorkloadTrace` so
that different policies are compared on identical workloads), records the
decision's cost and analytic success probabilities, and optionally realises
each EC with the link-layer Monte-Carlo simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.core.policy import RoutingPolicy
from repro.faults.model import FaultSchedule
from repro.network.graph import QDNGraph
from repro.simulation.clock import SlotClock
from repro.simulation.physical import PhysicalModel
from repro.simulation.pipeline import RunEnvelope, SlotPipeline
from repro.simulation.results import SimulationResult, SlotRecord
from repro.telemetry.tracer import TelemetryModel
from repro.utils.rng import SeedLike, spawn_rngs
from repro.workload.traces import WorkloadTrace

#: The two simulation backends: the paper's slotted abstraction and the
#: event-driven co-simulation (see :mod:`repro.simulation.eventsim`).
BACKEND_KINDS = ("slotted", "event")

#: Per-slot streaming hook: called with ``(policy_name, record)`` after every
#: simulated slot.  Returning ``False`` stops the run early (the result then
#: covers only the slots simulated so far); any other return value continues.
#: Every driver honours the same contract: the multi-user simulator's
#: provider-record hook and the serving scheduler's record hook stop their
#: runs on ``False`` too.
SlotCallback = Callable[[str, SlotRecord], Optional[bool]]


@dataclass
class SlottedSimulator(SlotPipeline):
    """Runs one policy over one frozen workload trace.

    The trace is this driver's request source; every slot goes through the
    shared per-slot step of :class:`~repro.simulation.pipeline.SlotPipeline`.

    Parameters
    ----------
    graph:
        The QDN.
    trace:
        The frozen workload (requests, availability, candidate routes).
    total_budget:
        The user's long-term budget ``C`` (only used for reporting —
        policies carry their own budget configuration).
    realize:
        Whether to also Monte-Carlo-realise every EC (adds the
        ``realized_*`` fields to the records).
    physical:
        Optional :class:`~repro.simulation.physical.PhysicalModel`: when
        set, every realised EC additionally runs the physical delivery chain
        (purification, decoherence/cutoff, swapping) and the records carry
        delivered fidelities.  Requires ``realize=True``.  When ``None``
        (the default) nothing changes — the run consumes exactly the same
        random streams as before the physical layer existed.
    clock:
        Optional :class:`~repro.simulation.clock.SlotClock` used to stamp
        each record with its wall-clock slot boundaries (``slot_start_s`` /
        ``slot_end_s``); defaults to the graph's attempt schedule with no
        guard time.  The clock never affects outcomes on this backend —
        only the timestamps.
    faults:
        Optional precomputed :class:`~repro.faults.FaultSchedule`: the
        simulator consults it every slot.  In aware mode routes crossing a
        failed element leave the candidate sets before the policy decides
        (the policy sees the degraded topology without code changes); in
        blind mode the policy keeps routing into outages and the affected
        requests are forced to fail at realization time.  ``None`` (the
        default) changes nothing — fault-free runs consume exactly the
        historical random streams.
    """

    graph: QDNGraph
    trace: WorkloadTrace
    total_budget: float = 5000.0
    realize: bool = True
    physical: Optional[PhysicalModel] = None
    clock: Optional[SlotClock] = None
    faults: Optional[FaultSchedule] = None
    guard_level: str = "off"
    telemetry: Optional[TelemetryModel] = None

    def __post_init__(self) -> None:
        if self.clock is None:
            self.clock = SlotClock(attempts_per_slot=self.graph.attempts_per_slot)

    def run(
        self,
        policy: RoutingPolicy,
        seed: SeedLike = None,
        on_slot: Optional[SlotCallback] = None,
    ) -> SimulationResult:
        """Simulate ``policy`` over the whole trace and return its result.

        ``on_slot`` receives every :class:`SlotRecord` as it is produced;
        returning ``False`` from the callback stops the simulation early.
        """
        envelope = RunEnvelope(self.guard_level, self.telemetry, self.faults)
        with envelope.active():
            lane = self._lane(policy, self._streams(seed), envelope.tracer)
            policy.reset(self.graph, self.trace.horizon)
            routes_for = self.trace.routes_for
            for slot_trace in self.trace.slots:
                t = slot_trace.t
                fault_state = envelope.begin_slot(t)
                _, record = self._step(
                    envelope, lane, t, slot_trace.snapshot, slot_trace.requests,
                    routes_for, fault_state,
                )
                if envelope.emit(t, on_slot, policy.name, record):
                    break
            (diagnostics,) = self._finish(envelope, [lane])
        return SimulationResult(
            policy_name=policy.name,
            horizon=self.trace.horizon,
            total_budget=self.total_budget,
            records=tuple(lane.records),
            diagnostics=diagnostics,
        )

    def run_lineup(
        self,
        policies: Iterable[RoutingPolicy],
        seed: SeedLike = None,
        on_slot: Optional[SlotCallback] = None,
    ) -> Dict[str, SimulationResult]:
        """Run every policy over this trace, each on its own stream from ``seed``."""
        policies = list(policies)
        streams = spawn_rngs(seed, len(policies))
        return {
            policy.name: self.run(policy, seed=stream, on_slot=on_slot)
            for policy, stream in zip(policies, streams)
        }


def build_simulator(
    graph: QDNGraph,
    trace: WorkloadTrace,
    total_budget: float = 5000.0,
    realize: bool = True,
    physical: Optional[PhysicalModel] = None,
    timing=None,
    faults: Optional[FaultSchedule] = None,
    guard_level: str = "off",
    telemetry: Optional[TelemetryModel] = None,
):
    """Construct the simulator of ``timing.backend`` (``"slotted"`` or ``"event"``).

    Both backends expose the same ``run(policy, seed, on_slot)`` interface
    and produce the same record schema, so every caller (``simulate_policies``
    and :func:`repro.api.session.build_trial`) dispatches through this one
    factory.
    ``timing`` is a :class:`~repro.simulation.eventsim.TimingModel`
    (default: the slotted backend); its ``guard_time`` shapes the
    :class:`SlotClock` of *both* backends (the slotted backend only uses it
    for timestamps), while its latencies only exist on the event backend.
    ``faults`` is an optional precomputed
    :class:`~repro.faults.FaultSchedule` both backends consult per slot.
    """
    # Imported lazily: eventsim imports this module for SlottedSimulator.
    from repro.simulation.eventsim import EventDrivenSimulator, TimingModel

    timing = timing or TimingModel()
    options = dict(
        graph=graph,
        trace=trace,
        total_budget=total_budget,
        realize=realize,
        physical=physical,
        clock=timing.slot_clock(graph.attempts_per_slot),
        faults=faults,
        guard_level=guard_level,
        telemetry=telemetry,
    )
    if timing.backend == "event":
        return EventDrivenSimulator(timing=timing, **options)
    return SlottedSimulator(**options)


def simulate_policies(
    graph: QDNGraph,
    trace: WorkloadTrace,
    policies: Sequence[RoutingPolicy],
    total_budget: float = 5000.0,
    realize: bool = True,
    seed: SeedLike = None,
    on_slot: Optional[SlotCallback] = None,
    physical: Optional[PhysicalModel] = None,
    timing=None,
    faults: Optional[FaultSchedule] = None,
    guard_level: str = "off",
    telemetry: Optional[TelemetryModel] = None,
) -> Dict[str, SimulationResult]:
    """Run several policies over the *same* trace and collect their results.

    Each policy gets its own independent random stream (for Gibbs sampling
    and EC realisation) derived from ``seed``, so results are reproducible
    yet uncorrelated across policies.  ``on_slot`` is forwarded to every
    policy's run (see :class:`SlottedSimulator`); ``physical`` switches on
    the physical delivery chain for every policy (each run gets its own
    fresh engine and spawned stream).  ``timing`` selects and configures
    the simulation backend (see :func:`build_simulator`);
    ``faults`` is shared by every policy, like the trace — outages hit the
    whole line-up identically.
    """
    simulator = build_simulator(
        graph,
        trace,
        total_budget=total_budget,
        realize=realize,
        physical=physical,
        timing=timing,
        faults=faults,
        guard_level=guard_level,
        telemetry=telemetry,
    )
    return simulator.run_lineup(policies, seed=seed, on_slot=on_slot)
