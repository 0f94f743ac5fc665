"""The per-slot pipeline of every slot-driven simulator, and the run envelope.

The paper's per-slot procedure is one loop: observe the slot's requests and
free qubits and channels, solve P2, allocate, realise, update the budget
queue.  :meth:`SlotPipeline._step` writes that loop body once, as a fixed
sequence of stages:

candidates → aware fault filter → ``policy.decide`` → capacity check →
realise → blind fault interruption → physical chain → guard checks →
append to the lane's columns
(:class:`~repro.simulation.results.SlotColumnsBuilder`) → emit/stop.

Two strategies plug into the fixed skeleton:

* the **backend** supplies the realise and physical steps as a
  :class:`SlotLane` — the slotted backend's batched link draw here, the
  event backend's closed-form signalling times (the same draw, timed
  against the slot deadline) in :mod:`repro.simulation.eventsim`;
* the **driver** supplies the request source — the frozen workload trace of
  :class:`~repro.simulation.engine.SlottedSimulator`, or the tenants'
  request processes of :class:`~repro.core.multiuser.MultiUserSimulator`,
  where each tenant is one lane through the same step.

:class:`RunEnvelope` wraps a run of any of the four drivers, the serving
scheduler included.  It builds the invariant guard and the tracer, activates
both ambient hooks, owns the fault counters and finalises the diagnostics.
At guard and telemetry ``off`` it builds nothing, and the loop's guard,
telemetry and fault stages reduce to ``is not None`` tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.problem import SlotContext
from repro.faults.model import FaultSchedule, FaultStats
from repro.guard import hooks as guard_hooks
from repro.guard.invariants import InvariantGuard
from repro.network.graph import EdgeKey, QDNGraph, ResourceSnapshot
from repro.network.routes import Route
from repro.simulation.link_layer import LinkLayerSimulator
from repro.simulation.physical import PhysicalModel
from repro.simulation.results import SlotColumnsBuilder
from repro.telemetry import hooks as telemetry_hooks
from repro.telemetry.tracer import TelemetryModel, Tracer, maybe_span
from repro.utils.rng import SeedLike, as_generator, spawn_rngs


class RunEnvelope:
    """Guard, tracer and fault bookkeeping of one simulator run.

    Built fresh per run, so every counter is per run.  ``guard`` and
    ``tracer`` are ``None`` when their effective level (after the
    ``REPRO_GUARD`` / ``REPRO_TELEMETRY`` overrides) is ``off``, and
    ``fault_stats`` is ``None`` for fault-free runs.
    """

    __slots__ = ("guard", "tracer", "faults", "fault_stats")

    def __init__(
        self,
        guard_level: str = "off",
        telemetry: Optional[TelemetryModel] = None,
        faults: Optional[FaultSchedule] = None,
    ):
        self.guard = InvariantGuard.build(guard_level)
        self.tracer = Tracer.build(telemetry)
        self.faults = faults
        self.fault_stats = FaultStats() if faults is not None else None

    @contextmanager
    def active(self) -> Iterator["RunEnvelope"]:
        """Install the guard and the tracer as the ambient hooks of the run.

        The ambient handles let the solver kernel reach both without new
        plumbing.
        """
        with guard_hooks.activate(self.guard), telemetry_hooks.activate(self.tracer):
            yield self

    def begin_slot(self, t: int):
        """Open slot ``t``: the guard's slot hook, then the slot's fault state."""
        if self.guard is not None:
            self.guard.begin_slot(t)
        return self.fault_state(t)

    def fault_state(self, t: int):
        """Slot ``t``'s fault state, observed once (``None`` when fault-free)."""
        faults = self.faults
        if faults is None:
            return None
        with maybe_span(self.tracer, "faults.schedule", slot=t):
            state = faults.state_at(t)
            self.fault_stats.observe_slot(faults, state)
        return state

    def emit(self, t: int, on_slot: Optional[Callable], *payload) -> bool:
        """Emit stage: hand slot ``t``'s record to ``on_slot``.

        Returns ``True`` when the callback returned ``False``, which stops
        the run after this slot.
        """
        tracer = self.tracer
        with maybe_span(tracer, "records.emit", slot=t):
            stop = on_slot is not None and on_slot(*payload) is False
        if tracer is not None:
            tracer.maybe_flush(t)
        return stop

    def finalize(
        self,
        lanes: Sequence[Dict[str, object]],
        final_checks: Callable[[InvariantGuard], None],
    ) -> None:
        """Complete the per-lane diagnostics mappings in place.

        The run-level families (fault totals, guard stats, telemetry) join
        the first lane's mapping, so merging the lanes counts them once.
        ``final_checks`` runs the driver's end-of-run guard checks.
        """
        run = lanes[0]
        if self.fault_stats is not None:
            run["faults"] = self.fault_stats.finalize(self.faults)
        guard = self.guard
        if guard is not None:
            final_checks(guard)
            if self.fault_stats is not None:
                guard.check_fault_stats(self.faults, run["faults"])
            run["guard"] = guard.stats()
        tracer = self.tracer
        if tracer is not None:
            # The diagnostics are the one channel that crosses worker-pool
            # process boundaries and reaches a saved record.
            run["telemetry"] = tracer.stats()
            spans = tracer.span_events()
            if spans:
                run["telemetry_spans"] = spans


#: One served request's realisation input: its route and channel allocation.
RouteItems = List[Tuple[Route, Dict[EdgeKey, int]]]


class SlotLane:
    """One policy's pass through the per-slot step, on the slotted backend.

    Holds the policy, its random streams, its physical engine (``None``
    with the layer off) and its slots, as columns.  :meth:`links` and
    :meth:`chain` are the backend's realise and physical steps; the event
    backend overrides them.
    """

    __slots__ = (
        "policy",
        "decision_rng",
        "realization_rng",
        "physical_rng",
        "engine",
        "tracer",
        "link_layer",
        "slots",
    )

    def __init__(
        self, graph: QDNGraph, policy, streams: Sequence, physical: Optional[PhysicalModel], tracer
    ):
        self.policy = policy
        self.decision_rng, self.realization_rng, self.physical_rng = streams
        self.engine = None if physical is None else physical.build_engine(graph.attempts_per_slot)
        self.tracer = tracer
        self.link_layer = LinkLayerSimulator(graph=graph)
        self.slots = SlotColumnsBuilder()

    def links(self, t: int, items: RouteItems):
        """Realise step: one batched draw over every served route of the slot.

        Returns the per-request success and fidelity lists plus a handle
        :meth:`chain` receives (unused here).
        """
        realized: List[bool] = []
        fidelities: List[float] = []
        with maybe_span(self.tracer, "link.realize", slot=t):
            for realization in self.link_layer.realize_routes(items, seed=self.realization_rng):
                realized.append(realization.succeeded)
                fidelities.append(realization.fidelity)
        return realized, fidelities, None

    def chain(self, t: int, items: RouteItems, realized, num_unserved: int, handle):
        """Physical step: the delivery chain over the link outcomes.

        Returns the aligned ``(delivered, delivered_fidelities,
        fidelity_served)`` sequences, empty with the physical layer off.
        """
        if self.engine is None:
            return (), (), ()
        with maybe_span(self.tracer, "physical.chain", slot=t):
            outcome = self.engine.realize_decision(
                items, realized, num_unserved, seed=self.physical_rng
            )
        return outcome.delivered, outcome.fidelities, outcome.fidelity_ok

    def diagnostics(self) -> Dict[str, object]:
        """The policy's run diagnostics plus this lane's layer stats."""
        diagnostics = dict(self.policy.diagnostics())
        if self.engine is not None:
            diagnostics["physical"] = self.engine.stats.to_dict()
        return diagnostics


class SlotPipeline:
    """The per-slot step shared by the slot-driven simulators (a mixin).

    The host class provides ``graph``, ``realize``, ``physical``,
    ``faults``, ``clock``, ``guard_level`` and ``telemetry``, and drives the
    slots from its request source.  :meth:`_lane` is the one backend hook.
    """

    def _streams(self, seed: SeedLike, leading: int = 0) -> list:
        """The run's streams: ``leading`` driver streams, then the decision,
        realization and physical streams (``None`` with the layer off)."""
        if self.physical is not None and not self.realize:
            raise ValueError("the physical layer requires realize=True")
        # The physical stream is spawned only when the layer is on, so runs
        # without it consume exactly the streams they did before it existed.
        rng = as_generator(seed)
        if self.physical is not None:
            return spawn_rngs(rng, leading + 3)
        return spawn_rngs(rng, leading + 2) + [None]

    def _lane(self, policy, streams: Sequence, tracer: Optional[Tracer]) -> SlotLane:
        """Backend hook: the lane that realises ``policy``'s decisions."""
        return SlotLane(self.graph, policy, streams, self.physical, tracer)

    def _step(
        self,
        envelope: RunEnvelope,
        lane: SlotLane,
        t: int,
        snapshot: ResourceSnapshot,
        requests: Sequence,
        routes_for: Callable,
        fault_state,
    ):
        """Run ``lane`` through slot ``t`` and append it to the lane's slots;
        returns the decision.

        ``requests`` and ``snapshot`` are what the driver's request source
        offers this lane; ``routes_for`` maps a request to its candidate
        routes; ``fault_state`` is the slot's (``None`` when fault-free).
        """
        tracer = envelope.tracer
        with maybe_span(tracer, "workload.candidates", slot=t):
            candidate_routes = {request: tuple(routes_for(request)) for request in requests}
        if fault_state and self.faults.aware:
            # Aware mode: routes over failed elements leave the candidate
            # sets, so the policy sees the degraded topology unmodified.
            with maybe_span(tracer, "faults.schedule", slot=t):
                filtered = self.faults.filter_routes(fault_state, candidate_routes)
                envelope.fault_stats.requests_unservable += sum(
                    1
                    for request in requests
                    if candidate_routes[request] and not filtered[request]
                )
            candidate_routes = filtered
        graph = self.graph
        context = SlotContext(
            t=t,
            graph=graph,
            snapshot=snapshot,
            requests=requests,
            candidate_routes=candidate_routes,
        )
        policy = lane.policy
        with maybe_span(tracer, "kernel.solve", slot=t, hist="kernel.solve_s"):
            decision = policy.decide(context, seed=lane.decision_rng)
        if not decision.respects_snapshot(snapshot):
            raise RuntimeError(
                f"policy {policy.name!r} violated capacity constraints in slot {t}"
            )

        served = decision.served_requests
        success_probabilities = tuple(
            decision.success_probability(graph, request) for request in served
        )
        utility = decision.utility(graph, probabilities=success_probabilities)
        realized = fidelities = delivered = delivered_fidelities = fidelity_served = ()
        if self.realize:
            items = []
            for request in served:
                route = decision.route_for(request)
                items.append(
                    (route, {key: decision.channels_for(request, key) for key in route.edges})
                )
            realized, fidelities, handle = lane.links(t, items)
            if fault_state:
                # Blind mode: a request routed across a failed element loses
                # its entanglement whatever the draw said.  The draw already
                # happened, so stream consumption is unchanged.  (A no-op in
                # aware mode: no chosen route crosses a failed element.)
                for index, (route, _) in enumerate(items):
                    if fault_state.blocks_route(route):
                        envelope.fault_stats.requests_interrupted += 1
                        realized[index] = False
                        fidelities[index] = 0.0
            unserved = len(decision.unserved)
            delivered, delivered_fidelities, fidelity_served = lane.chain(
                t, items, realized, unserved, handle
            )
            # Unserved requests trivially fail.
            realized.extend([False] * unserved)
            fidelities.extend([0.0] * unserved)

        queue_length = policy.queue_length()

        guard = envelope.guard
        if guard is not None:
            with maybe_span(tracer, "guard.check", slot=t):
                guard.check_decision(context, decision, queue_length)
                guard.check_objective(utility, slot=t)
                guard.check_fidelities(fidelities, slot=t, model=lane.engine)
                if delivered_fidelities:
                    guard.check_fidelities(delivered_fidelities, slot=t, model=lane.engine)

        clock = self.clock
        # Tuples, not lists: once the collector finds a tuple holding only
        # numbers it stops tracking it, so the slots a run keeps add nothing
        # to the collections that run meanwhile.
        lane.slots.append(
            t=t,
            num_requests=len(requests),
            num_served=decision.num_served,
            cost=decision.cost(),
            utility=utility,
            success_probabilities=success_probabilities,
            realized_successes=tuple(realized),
            realized_fidelities=tuple(fidelities),
            queue_length=queue_length,
            delivered_successes=tuple(delivered),
            delivered_fidelities=tuple(delivered_fidelities),
            fidelity_served=tuple(fidelity_served),
            slot_start_s=clock.slot_start(t),
            slot_end_s=clock.slot_end(t),
        )
        return decision

    def _finish(
        self, envelope: RunEnvelope, lanes: Sequence[SlotLane]
    ) -> List[Dict[str, object]]:
        """Every lane's finalised diagnostics, in lane order."""
        diagnostics = [lane.diagnostics() for lane in lanes]

        def final_checks(guard: InvariantGuard) -> None:
            for lane, lane_diagnostics in zip(lanes, diagnostics):
                guard.check_policy_final(lane.policy)
                guard.check_physical_stats(lane_diagnostics.get("physical"))

        envelope.finalize(diagnostics, final_checks)
        return diagnostics
