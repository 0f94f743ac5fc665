"""The event backend: the classical signalling of a slot, in closed form.

The slotted simulator (:mod:`repro.simulation.engine`) treats a slot as one
atomic routing round: generation, heralding, swapping and delivery all
complete instantly at the slot boundary.  This module is the second backend
behind the same interface, in which those steps take *time*:

* **Link generation** — each allocated edge attempts elementary pair
  generation attempt by attempt (``ATTEMPT_DURATION_S`` per tick, all
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
* **Slot deadline** — the routing policies are invoked, unmodified, at
  :class:`~repro.simulation.clock.SlotClock` boundaries; a request is served
  only if its end-to-end confirmation arrives by the slot deadline (attempt
  window plus ``guard_time``), so classical latency degrades throughput.

**Closed-form times.**  No two requests share state and nothing outlives
its slot's deadline, so no event queue is needed: every time is a sum or a
max of earlier ones, computed route by route (:func:`route_timeline`), and
every :class:`EventStats` counter is a count over those times.

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
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.network.graph import EdgeKey
from repro.simulation.clock import SlotClock
from repro.simulation.engine import BACKEND_KINDS, SlottedSimulator
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

    ``events`` counts the generations, heralds, swap messages and multi-hop
    confirmations that happened by their slot's deadline (on one hop the
    herald is the confirmation); ``messages`` counts the classical
    messages (heralds, swap outcomes, confirmations) consumed by *delivered*
    requests, so ``messages / delivered`` is the mean herald round-trips per
    delivered pair the CLI health line reports.  ``deadline_misses`` counts
    requests whose links all materialised but whose end-to-end confirmation
    did not reach the end node by the slot deadline — the pure latency loss
    relative to the slotted abstraction (a confirmed request a blind fault
    voids is interrupted, not late).  ``cutoff_expired_pairs`` counts
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


class RouteTimeline(NamedTuple):
    """One served route's signalling outcome in one slot.

    ``confirmed_at`` is when the end node learnt of the end-to-end pair
    (``None``: not by the slot deadline).  ``dwells`` holds, for a confirmed
    route, the seconds each link's pair waited in memory: from its
    generation to the swap that consumed it (``None`` otherwise).
    """

    confirmed_at: Optional[float]
    dwells: Optional[List[float]]


def route_timeline(
    generated: Sequence[Optional[float]],
    latencies: Sequence[float],
    deadline: float,
    stats: EventStats,
) -> RouteTimeline:
    """The signalling times of one served route in one slot.

    Nodes ``v_0 … v_h`` along the route; edge ``j`` connects ``v_j`` and
    ``v_{j+1}`` with one-way classical latency ``L_j``, and its pair was
    generated at ``g_j`` (``None``: the link failed this slot).  Then:

    * the herald of edge ``j`` reaches both endpoints at ``r_j = g_j + L_j``;
    * swaps run left to right: ``v_1`` fuses edges 0 and 1 at
      ``s_1 = max(r_0, r_1)``, and each later node ``v_k`` at
      ``s_k = max(s_{k−1} + L_{k−1}, r_k)``, once the upstream swap's
      outcome message and its right-hand herald have both arrived;
    * the end node confirms at ``s_{h−1} + L_{h−1}``, or at ``r_0`` on one
      hop, where the herald itself is the confirmation.

    An event (a generation, a herald, a swap message or the confirmation)
    happens when its inputs happened and its time is at or before
    ``deadline``.  At zero latency the confirmation is ``max_j g_j``, which
    always lands inside the slot: the slotted model.  The times are the
    float sums an event loop would form (``g + L``, then ``s + L``; ``max``
    is exact).  ``stats`` counts the events, pairs, heralds, swap messages,
    confirmations and deadline misses.
    """
    pairs = heralds = swap_messages = 0
    ready: List[Optional[float]] = []
    for time, latency in zip(generated, latencies):
        herald = None
        if time is not None and time <= deadline:
            pairs += 1
            herald = time + latency
            if herald <= deadline:
                heralds += 1
            else:
                herald = None
        ready.append(herald)
    # ``known``: when the next swap node learnt of its left segment (the
    # first herald, then each upstream outcome message); past the last
    # swap, when the end node learnt of the end-to-end pair.
    known = ready[0]
    consumed = [known]
    hops = len(ready)
    for k in range(1, hops):
        if known is None or ready[k] is None:
            known = None
            break
        swap = max(known, ready[k])
        if k == 1:
            consumed[0] = swap
        consumed.append(swap)
        known = swap + latencies[k]
        if known > deadline:
            known = None
            break
        if k < hops - 1:
            swap_messages += 1
    stats.pairs_generated += pairs
    stats.heralds += heralds
    stats.swap_messages += swap_messages
    stats.events += pairs + heralds + swap_messages
    if known is None:
        if None not in generated:
            stats.deadline_misses += 1
        return RouteTimeline(None, None)
    stats.confirmations += 1
    if hops > 1:
        stats.events += 1
    return RouteTimeline(known, [end - start for end, start in zip(consumed, generated)])


class ProtocolLane(SlotLane):
    """The event backend's realise and physical steps.

    The realise step times the swap protocols of every served route against
    the slot deadline; a request counts as realised when its end-to-end
    confirmation arrived in time.  The physical step does the delivery
    accounting (after the pipeline's blind fault interruption, so
    interrupted requests count as voided) and runs the physical engine over
    the confirmed requests' measured dwells.
    """

    __slots__ = ("simulator", "stats")

    def __init__(self, simulator: "EventDrivenSimulator", policy, streams, tracer):
        super().__init__(simulator.graph, policy, streams, simulator.physical, tracer)
        self.simulator = simulator
        self.stats = EventStats()

    def links(self, t: int, items: RouteItems):
        with maybe_span(self.tracer, "event.protocols", slot=t):
            timelines = self.simulator._launch_protocols(
                t, items, self.realization_rng, self.stats
            )
        # Confirmed ECs report the same realised fidelity constant as the
        # slotted fast mode.
        base = self.link_layer.base_fidelity
        realized = [timeline.confirmed_at is not None for timeline in timelines]
        fidelities = [base if confirmed else 0.0 for confirmed in realized]
        return realized, fidelities, timelines

    def chain(self, t: int, items: RouteItems, realized, num_unserved: int, timelines):
        stats = self.stats
        for (route, _), confirmed in zip(items, realized):
            if confirmed:
                # A delivery used h heralds, h − 2 swap messages and the
                # confirmation (on one hop the herald is the confirmation).
                stats.delivered += 1
                stats.messages += 2 * route.hops - 1
        if self.engine is None:
            return (), (), ()
        # An interrupted request counts as unconfirmed, as ``realized`` says.
        dwells = [
            timeline.dwells if confirmed else None
            for timeline, confirmed in zip(timelines, realized)
        ]
        with maybe_span(self.tracer, "physical.chain", slot=t):
            outcome = self.engine.realize_decision(
                items, realized, num_unserved, seed=self.physical_rng, dwells=dwells
            )
        stats.cutoff_expired_pairs += outcome.expired_pairs
        return outcome.delivered, outcome.fidelities, outcome.fidelity_ok

    def diagnostics(self) -> Dict[str, object]:
        diagnostics = super().diagnostics()
        self.stats.slots = len(self.slots)
        diagnostics["eventsim"] = self.stats.to_dict()
        return diagnostics


@dataclass
class EventDrivenSimulator(SlottedSimulator):
    """Runs one policy over one frozen workload trace with timed signalling.

    A :class:`~repro.simulation.engine.SlottedSimulator` whose lanes time
    each slot's signalling against its deadline (:class:`ProtocolLane`): same
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

    def _launch_protocols(
        self,
        t: int,
        items: RouteItems,
        realization_rng,
        stats: EventStats,
    ) -> List[RouteTimeline]:
        """Sample slot ``t``'s link outcomes and time every served route.

        The thresholds are assembled in exactly the flat edge order of
        :meth:`LinkLayerSimulator.realize_routes` and realised with one
        batched uniform draw from the realization stream — the same stream
        consumption, hence bit-identical success indicators.  Each uniform
        additionally yields the first successful attempt tick (see
        :func:`first_success_attempt`), giving every generated pair its
        wall-clock generation time; :func:`route_timeline` then times each
        route's protocol against the slot deadline.
        """
        graph = self.graph
        clock = self.clock
        flat: List[Tuple[int, int, EdgeKey, int]] = []
        thresholds: List[float] = []
        for index, (route, allocation) in enumerate(items):
            for position, key in enumerate(route.edges):
                channels = int(allocation.get(key, 0))
                if channels > 0:
                    flat.append((index, position, key, channels))
                    thresholds.append(graph.link_success(key, channels))
        # Matches sample_successes(thresholds, rng): one Generator.random(n)
        # call — but we keep the uniforms, which double as generation times.
        uniforms = realization_rng.random(len(thresholds)) if thresholds else []

        generated: List[List[Optional[float]]] = [[None] * route.hops for route, _ in items]
        slot_start = clock.slot_start(t)
        for entry, u, threshold in zip(flat, uniforms, thresholds):
            index, position, key, channels = entry
            if not u < threshold:
                continue
            per_tick = 1.0 - (1.0 - graph.attempt_success(key)) ** channels
            tick = first_success_attempt(float(u), per_tick, clock.attempts_per_slot)
            generated[index][position] = slot_start + tick * clock.attempt_duration
        deadline = clock.slot_end(t)
        latency_of = self.timing.latency_of
        return [
            route_timeline(times, [latency_of(key) for key in route.edges], deadline, stats)
            for times, (route, _) in zip(generated, items)
        ]
