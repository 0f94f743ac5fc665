"""The event-driven co-simulation backend.

The slotted simulator (:mod:`repro.simulation.engine`) treats a slot as one
atomic routing round: generation, heralding, swapping and delivery all
complete instantly at the slot boundary.  This module is the second backend
behind the same interface — a discrete-event simulation in which those steps
take *time*:

* **Link generation processes** — each allocated edge attempts elementary
  pair generation attempt by attempt (``ATTEMPT_DURATION_S`` per tick, all
  channels in parallel), so a pair materialises at a concrete wall-clock
  instant within the slot instead of "at the slot".
* **Heralding** — the endpoints of an edge only learn of a success after the
  classical one-way latency of that edge (:meth:`TimingModel.latency_of`).
* **Swapping protocol** — swaps run left-to-right along the route; a swap
  node fuses its two segments only once *both* heralds (or the upstream
  swap-outcome message) have arrived, and its own outcome message then
  propagates down the route until the end node confirms the end-to-end pair.
* **Measured dwells** — each confirmed request's pairs reach the one
  physical chain (:class:`~repro.simulation.physical.PhysicalEngine`) with
  their *actual* dwell time (generation to consumption by a swap) instead
  of the slotted backend's deterministic ``dwell_fraction`` of a slot, so
  decoherence and the memory-cutoff policy act on the timed fidelity.
* **SlotBridge** — the routing policies are invoked, unmodified, at
  :class:`~repro.simulation.clock.SlotClock` boundaries; a request is served
  only if its end-to-end confirmation arrives by the slot deadline (attempt
  window plus ``guard_time``), so classical latency degrades throughput.

**Zero-latency equivalence.**  With ``signaling_latency_s = 0`` the backend
reproduces the slotted backend's per-slot served counts *exactly*, and this
follows from the shared loop: :class:`EventDrivenSimulator` is a
:class:`~repro.simulation.engine.SlottedSimulator` whose one override,
:meth:`EventDrivenSimulator._lane`, swaps the realise and physical steps of
the per-slot pipeline (:mod:`repro.simulation.pipeline`).  Streams,
candidate sets, fault handling, the ``policy.decide`` calls and the records
all come from the same code.  The realise step consumes the realization
stream exactly as
:meth:`~repro.simulation.link_layer.LinkLayerSimulator.realize_routes`
does: one batched uniform draw over the same success thresholds in the same
flat edge order.  Each uniform ``u`` is used twice: ``u < threshold`` is the
slotted success indicator (bit-identical), and the truncated-geometric
inverse CDF maps the *same* ``u`` to the first successful attempt tick (see
:func:`first_success_attempt`), which is what gives every pair a wall-clock
generation time without consuming extra randomness.  At zero latency every
confirmation lands inside the slot, so the realised outcomes coincide; at
positive latency the identical pairs are generated but confirmations can
miss the deadline — the throughput loss is purely a timing effect, never a
sampling artefact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.graph import EdgeKey
from repro.network.routes import Route
from repro.simulation.clock import SlotClock
from repro.simulation.engine import BACKEND_KINDS, SlottedSimulator
from repro.simulation.events import Event, EventLoop
from repro.simulation.pipeline import RouteItems, SlotLane
from repro.telemetry.tracer import Tracer, maybe_span
from repro.utils.validation import check_choice, check_non_negative


def edge_latency_key(u: object, v: object) -> str:
    """Canonical string key of an undirected edge in a per-edge latency map."""
    return "|".join(sorted((str(u), str(v))))


@dataclass(frozen=True)
class TimingModel:
    """The simulation backend and its classical-signaling timing.

    The ``timing`` field of :class:`~repro.experiments.config.ExperimentConfig`
    (always present).  ``backend`` selects the paper's ``"slotted"``
    abstraction or the ``"event"`` co-simulation.  ``signaling_latency_s``
    is the default one-way classical latency of every edge;
    ``edge_latency_s`` optionally overrides it per edge, keyed by
    :func:`edge_latency_key` (``"u|v"`` with the endpoints sorted as
    strings, so the map survives JSON).  ``guard_time`` extends the slot
    beyond the attempt window (see :class:`~repro.simulation.clock.SlotClock`)
    — generation only runs inside the attempt window, so the guard is
    exactly the slack available for classical message round-trips.  With
    zero latency the event backend reproduces the slotted backend's
    realised outcomes exactly.
    """

    backend: str = "slotted"
    signaling_latency_s: float = 0.0
    edge_latency_s: Optional[Mapping[str, float]] = None
    guard_time: float = 0.0

    def __post_init__(self) -> None:
        check_choice(self.backend, BACKEND_KINDS, "simulation backend")
        check_non_negative(self.signaling_latency_s, "signaling_latency_s")
        check_non_negative(self.guard_time, "guard_time")
        if self.edge_latency_s:
            for key, value in self.edge_latency_s.items():
                check_non_negative(value, f"edge_latency_s[{key!r}]")

    def latency_of(self, key: EdgeKey) -> float:
        """One-way classical latency of edge ``key`` in seconds."""
        if self.edge_latency_s:
            override = self.edge_latency_s.get(edge_latency_key(*key))
            if override is not None:
                return float(override)
        return float(self.signaling_latency_s)

    def slot_clock(self, attempts_per_slot: int) -> SlotClock:
        """The slot clock of this timing: the attempt window plus ``guard_time``.

        Every driver stamps its records with this clock, on either backend.
        """
        return SlotClock(attempts_per_slot=attempts_per_slot, guard_time=self.guard_time)


@dataclass
class EventStats:
    """Protocol-level accounting of one event-driven run (all cumulative).

    ``events`` is the event-loop total; ``messages`` counts the classical
    messages (heralds, swap outcomes, confirmations) consumed by *delivered*
    requests, so ``messages / delivered`` is the mean herald round-trips per
    delivered pair the CLI health line reports.  ``deadline_misses`` counts
    requests whose links all materialised but whose end-to-end confirmation
    did not reach the end node by the slot deadline — the pure latency loss
    relative to the slotted abstraction.  ``cutoff_expired_pairs`` counts
    stored pairs discarded because their *timed* fidelity fell below the
    memory cutoff by the moment a swap consumed them.
    """

    events: int = 0
    slots: int = 0
    pairs_generated: int = 0
    heralds: int = 0
    swap_messages: int = 0
    confirmations: int = 0
    deadline_misses: int = 0
    cutoff_expired_pairs: int = 0
    delivered: int = 0
    messages: int = 0

    def to_dict(self) -> Dict[str, float]:
        """A plain mapping (what run diagnostics carry and merges consume)."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def mean_round_trips(self) -> float:
        """Mean classical messages per delivered pair (0 when none delivered)."""
        if self.delivered == 0:
            return 0.0
        return self.messages / self.delivered


def first_success_attempt(u: float, attempt_success: float, attempts: int) -> int:
    """The first successful attempt tick implied by the slot-level draw ``u``.

    An edge with per-tick success probability ``q`` (all channels attempting
    in parallel) succeeds within the slot with ``P = 1 − (1 − q)^A`` — the
    same value as the slotted threshold ``link_success`` — and the slotted
    backend realises it as ``u < P``.  Conditional on that success, ``u`` is
    uniform on ``(0, P)``, so the truncated-geometric quantile
    ``⌈log(1 − u) / log(1 − q)⌉`` turns the *same* draw into the first
    successful tick: no extra randomness, and the success indicator stays
    bit-identical to the slotted Bernoulli.
    """
    if attempt_success >= 1.0:
        return 1
    if attempt_success <= 0.0:
        return attempts
    tick = math.ceil(math.log1p(-u) / math.log1p(-attempt_success))
    return min(max(tick, 1), attempts)


class SwapProtocol:
    """Sequential entanglement swapping along one route, with messaging.

    Nodes ``v_0 … v_h`` along the route; edge ``j`` connects ``v_j`` and
    ``v_{j+1}`` with one-way classical latency ``L_j``.  A pair generated on
    edge ``j`` at ``g_j`` is heralded to both endpoints at ``g_j + L_j``.
    Swaps execute left to right: ``v_1`` fuses edges 0 and 1 once both
    heralds arrive; each later swap node ``v_s`` waits for the upstream swap
    outcome (sent over edge ``s−1``... travelling edge ``s−1``'s classical
    channel) *and* its right-hand herald; the final outcome propagates over
    the last edge to the end node, whose arrival time is the request's
    confirmation.  At zero latency the confirmation time collapses to
    ``max_j g_j``, which always lands inside the slot — the slotted model.

    Each elementary pair dwells in memory from its generation ``g_j`` until
    the swap that consumes it (``consumed[j]``); the physical engine
    applies decoherence and the cutoff policy over these actual dwell
    times (:meth:`dwells`).
    """

    __slots__ = (
        "route",
        "latencies",
        "stats",
        "hops",
        "generated",
        "ready",
        "consumed",
        "segment_known",
        "next_swap",
        "confirm_time",
        "messages",
        "pending",
    )

    def __init__(self, route: Route, latencies: Sequence[float], stats: EventStats):
        self.route = route
        self.latencies = list(latencies)
        self.stats = stats
        self.hops = route.hops
        self.generated: List[Optional[float]] = [None] * self.hops
        self.ready: List[Optional[float]] = [None] * self.hops
        self.consumed: List[Optional[float]] = [None] * self.hops
        self.segment_known: Optional[float] = None
        self.next_swap = 1
        self.confirm_time: Optional[float] = None
        self.messages = 0
        self.pending: List[Event] = []

    @property
    def all_generated(self) -> bool:
        """Whether every edge of the route produced an elementary pair."""
        return all(g is not None for g in self.generated)

    def dwells(self) -> List[float]:
        """Seconds each link's pair waited in memory, for a confirmed request:
        from generation to the swap that consumed it (to the confirmation
        for a link no swap consumed)."""
        return [
            (self.confirm_time if consumed is None else consumed) - generated
            for generated, consumed in zip(self.generated, self.consumed)
        ]

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def schedule_generation(self, loop: EventLoop, position: int, time: float) -> None:
        """Schedule edge ``position``'s pair to materialise at ``time``."""
        self.generated[position] = time
        self.pending.append(
            loop.schedule_at(time, name="generate", callback=self._make_generated(position))
        )

    def _make_generated(self, position: int):
        def on_generated(loop: EventLoop, event: Event) -> None:
            self.stats.pairs_generated += 1
            # Herald the success to both endpoints after the one-way latency.
            self.pending.append(
                loop.schedule(
                    self.latencies[position],
                    name="herald",
                    callback=self._make_herald(position),
                )
            )

        return on_generated

    def _make_herald(self, position: int):
        def on_herald(loop: EventLoop, event: Event) -> None:
            self.ready[position] = loop.now
            self.stats.heralds += 1
            self.messages += 1
            self._advance(loop)

        return on_herald

    def _on_segment_message(self, loop: EventLoop, event: Event) -> None:
        self.segment_known = loop.now
        self.stats.swap_messages += 1
        self.messages += 1
        self._advance(loop)

    def _on_confirm(self, loop: EventLoop, event: Event) -> None:
        self.confirm_time = loop.now
        self.stats.confirmations += 1
        self.messages += 1

    def _advance(self, loop: EventLoop) -> None:
        if self.hops == 1:
            # No swaps: the herald itself is the end-to-end confirmation.
            if self.confirm_time is None and self.ready[0] is not None:
                self.consumed[0] = loop.now
                self.confirm_time = loop.now
                self.stats.confirmations += 1
            return
        while self.next_swap <= self.hops - 1:
            swap = self.next_swap
            left_known = self.ready[0] if swap == 1 else self.segment_known
            if left_known is None or self.ready[swap] is None:
                return
            # ``_advance`` runs from the event that completed the last
            # precondition, so ``loop.now`` is exactly max(left, right).
            if swap == 1:
                self.consumed[0] = loop.now
            self.consumed[swap] = loop.now
            self.segment_known = None
            self.next_swap = swap + 1
            if swap == self.hops - 1:
                self.pending.append(
                    loop.schedule(self.latencies[swap], name="confirm", callback=self._on_confirm)
                )
            else:
                self.pending.append(
                    loop.schedule(
                        self.latencies[swap],
                        name="swap-message",
                        callback=self._on_segment_message,
                    )
                )

    def cancel_pending(self, loop: EventLoop) -> int:
        """Cancel events still pending past the slot deadline; returns count."""
        cancelled = 0
        for event in self.pending:
            if loop.cancel(event):
                cancelled += 1
        self.pending.clear()
        return cancelled


@dataclass
class SlotBridge:
    """Aligns the event loop with :class:`SlotClock` boundaries.

    The policies decide in the shared per-slot step exactly as on the
    slotted backend; the event lane then advances the loop to the slot
    boundary, schedules the slot's protocol events and steps the loop to the
    slot deadline (attempt window + guard time), after which the slot is
    finalised from what actually confirmed.
    """

    loop: EventLoop
    clock: SlotClock

    def open_slot(self, slot: int) -> float:
        """Advance the loop to the slot boundary; returns the start time."""
        start = self.clock.slot_start(slot)
        self.loop.run_until(start)
        return start

    def close_slot(self, slot: int) -> float:
        """Run the loop to the slot deadline; returns the deadline time."""
        deadline = self.clock.slot_end(slot)
        self.loop.run_until(deadline)
        return deadline


class ProtocolLane(SlotLane):
    """The event backend's realise and physical steps, on one event timeline.

    The realise step opens the slot, launches the swap protocols of every
    served route and runs the loop to the slot deadline; a request counts
    as realised when its end-to-end confirmation arrived in time.  The
    physical step does the confirmation accounting (after the pipeline's
    blind fault interruption, so interrupted protocols count as voided) and
    runs the physical engine over the confirmed requests' measured dwells.
    """

    __slots__ = ("simulator", "loop", "bridge", "stats")

    def __init__(self, simulator: "EventDrivenSimulator", policy, streams, tracer):
        super().__init__(simulator.graph, policy, streams, simulator.physical, tracer)
        self.simulator = simulator
        self.loop = EventLoop()
        self.bridge = SlotBridge(loop=self.loop, clock=simulator.clock)
        self.stats = EventStats()

    def links(self, t: int, items: RouteItems):
        bridge = self.bridge
        with maybe_span(self.tracer, "event.protocols", slot=t):
            slot_start = bridge.open_slot(t)
            protocols = self.simulator._launch_protocols(
                self.loop, items, slot_start, bridge.clock, self.realization_rng, self.stats
            )
            bridge.close_slot(t)
        # Confirmed ECs report the same realised fidelity constant as the
        # slotted fast mode.
        base = self.link_layer.base_fidelity
        realized = [protocol.confirm_time is not None for protocol in protocols]
        fidelities = [base if confirmed else 0.0 for confirmed in realized]
        return realized, fidelities, protocols

    def chain(self, t: int, items: RouteItems, realized, num_unserved: int, protocols):
        stats = self.stats
        for protocol, confirmed in zip(protocols, realized):
            protocol.cancel_pending(self.loop)
            if confirmed:
                stats.delivered += 1
                stats.messages += protocol.messages
            elif protocol.all_generated:
                stats.deadline_misses += 1
        if self.engine is None:
            return (), (), ()
        # An interrupted protocol counts as unconfirmed, as ``realized`` says.
        dwells = [
            protocol.dwells() if confirmed else None
            for protocol, confirmed in zip(protocols, realized)
        ]
        with maybe_span(self.tracer, "physical.chain", slot=t):
            outcome = self.engine.realize_decision(
                items, realized, num_unserved, seed=self.physical_rng, dwells=dwells
            )
        stats.cutoff_expired_pairs += outcome.expired_pairs
        return outcome.delivered, outcome.fidelities, outcome.fidelity_ok

    def diagnostics(self) -> Dict[str, object]:
        diagnostics = super().diagnostics()
        self.stats.events = self.loop.events_processed
        self.stats.slots = len(self.records)
        diagnostics["eventsim"] = self.stats.to_dict()
        return diagnostics


@dataclass
class EventDrivenSimulator(SlottedSimulator):
    """Runs one policy over one frozen workload trace, event by event.

    A :class:`~repro.simulation.engine.SlottedSimulator` whose lanes realise
    each slot on an event timeline (:class:`ProtocolLane`): same
    constructor, same ``run(policy, seed, on_slot)`` entry point, same
    :class:`SlotRecord` / :class:`SimulationResult` schema.  ``timing``
    configures classical signaling latency (see :class:`TimingModel`) and
    the default clock's guard time; with the default zero-latency timing the
    realised outcomes are bit-identical to the slotted backend (see the
    module docstring).  Event-protocol accounting lands in the run
    diagnostics under ``"eventsim"``.
    """

    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self) -> None:
        if self.clock is None:
            self.clock = self.timing.slot_clock(self.graph.attempts_per_slot)

    def _lane(self, policy, streams, tracer: Optional[Tracer]) -> SlotLane:
        return ProtocolLane(self, policy, streams, tracer)

    # ------------------------------------------------------------------ #
    # Protocol scheduling
    # ------------------------------------------------------------------ #
    def _launch_protocols(
        self,
        loop: EventLoop,
        items: Sequence[Tuple[Route, Mapping[EdgeKey, int]]],
        slot_start: float,
        clock: SlotClock,
        realization_rng,
        stats: EventStats,
    ) -> List[SwapProtocol]:
        """Sample the slot's link outcomes and schedule the protocol events.

        The thresholds are assembled in exactly the flat edge order of
        :meth:`LinkLayerSimulator.realize_routes` and realised with one
        batched uniform draw from the realization stream — the same stream
        consumption, hence bit-identical success indicators.  Each uniform
        additionally yields the first successful attempt tick (see
        :func:`first_success_attempt`), giving every generated pair its
        wall-clock generation time.
        """
        flat: List[Tuple[int, int, EdgeKey, int]] = []
        thresholds: List[float] = []
        for index, (route, allocation) in enumerate(items):
            for position, key in enumerate(route.edges):
                channels = int(allocation.get(key, 0))
                if channels > 0:
                    flat.append((index, position, key, channels))
                    thresholds.append(self.graph.link_success(key, channels))
        # Matches sample_successes(thresholds, rng): one Generator.random(n)
        # call — but we keep the uniforms, which double as generation times.
        uniforms = realization_rng.random(len(thresholds)) if thresholds else []

        protocols = [
            SwapProtocol(
                route,
                [self.timing.latency_of(key) for key in route.edges],
                stats,
            )
            for route, _ in items
        ]
        for entry, u, threshold in zip(flat, uniforms, thresholds):
            index, position, key, channels = entry
            if not u < threshold:
                continue
            per_tick = 1.0 - (1.0 - self.graph.attempt_success(key)) ** channels
            tick = first_success_attempt(float(u), per_tick, clock.attempts_per_slot)
            generated = slot_start + tick * clock.attempt_duration
            protocols[index].schedule_generation(loop, position, generated)
        return protocols
