"""The physical-layer co-simulation subsystem.

The routing layer declares a request "served" the moment every link of its
route succeeds; this module simulates what happens *after* that moment —
the physical delivery chain of a slotted quantum data network:

* **Purification** — each link may schedule BBPSSW recurrence rounds against
  the qubit budget its allocation paid for (round ``k`` consumes ``2^k`` raw
  pairs, so an edge with ``n`` channels affords ``⌊log2 n⌋`` rounds, see
  :func:`repro.workload.budget.purification_rounds_within_budget`).
* **Decoherence** — the purified pair waits in quantum memory until the
  swap that consumes it; its Werner parameter decays with the configured
  memory time (:mod:`repro.physics.decoherence`).  A *cutoff policy*
  discards pairs whose stored fidelity falls below a threshold.
* **Swapping** — the route's links are fused by Bell-state measurements,
  each succeeding with a configurable probability
  (:mod:`repro.physics.swapping`); fidelities compose through the iterated
  Werner swap of :func:`repro.physics.fidelity.fidelity_of_chain`, the same
  single source of truth the analytic
  :class:`repro.core.fidelity.RouteFidelityModel` uses.

:class:`PhysicalEngine` is the one chain of both backends.  It schedules
every purification round and swap of a slot up front and takes **one**
batched ``Generator.random(n)`` draw.  The backends differ only in how long
each pair waits in memory: the slotted backend uses the model's fixed
``dwell_fraction`` of a slot, and the event backend passes each link's
measured dwell (:mod:`repro.simulation.eventsim`).
:class:`ReferencePhysicalEngine` walks the same chain request by request
with scalar draws; NumPy fills a batch from the same bit stream as
sequential scalar draws, so the tests hold the two *bit-identical* under
the same spawned RNG streams.  Every scheduled operation consumes its
randomness even when an earlier stage already failed; that fixed draw
schedule is what makes the batching exact rather than approximate.

The subsystem is configured by one :class:`PhysicalModel`, the
``physical`` field of :class:`repro.experiments.config.ExperimentConfig`
(``None`` when the layer is off), set through ``Scenario.with_physical(...)``,
the ``physical.*`` config paths and the CLI (``--physical``, ``--swap-p``,
``--decoherence-t2``, ``--purify-rounds``, ``--fidelity-target``).  The
slot length is not part of the model: the engine takes it from the graph
(``attempts_per_slot``), the one place it is configured.  The engine
accumulates :class:`PhysicalStats`, which surface as
``RunRecord.stats("physical")`` / ``StudyResult.stats("physical")`` and in
the CLI ``--progress`` health line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.channels import (
    DECOHERENCE_TIME_S,
    DEFAULT_ATTEMPTS_PER_SLOT,
    slot_duration_seconds,
)
from repro.network.graph import EdgeKey
from repro.network.routes import Route
from repro.physics.decoherence import DecoherenceModel
from repro.physics.entanglement import sample_successes
from repro.physics.fidelity import fidelity_of_chain
from repro.physics.purification import (
    PURIFICATION_THRESHOLD,
    purification_ladder,
    sample_purification,
)
from repro.physics.swapping import sample_swap_successes
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, check_positive
from repro.workload.budget import purification_rounds_within_budget

#: One slot's physical input: the chosen route, its per-edge channel
#: allocation, and whether the link layer realised every link this slot.
PhysicalItem = Tuple[Route, Mapping[EdgeKey, int], bool]

#: Per-request memory dwells of one slot, aligned with its items: the
#: seconds each link's pair waited before a swap consumed it (``None`` for
#: a request whose links did not all materialise).
Dwells = Sequence[Optional[Sequence[float]]]


@dataclass(frozen=True)
class PhysicalModel:
    """Configuration of the physical delivery chain.

    Parameters
    ----------
    swap_success:
        Success probability of one Bell-state measurement (the paper assumes
        ≈1 and notes imperfect swapping "would simply appear as an extra
        product term in Eq. 2" — this is that term, simulated).
    link_fidelity:
        Fidelity of a freshly generated elementary pair.
    memory_time:
        Decoherence (T2) time constant of quantum memory, seconds.
    dwell_fraction:
        Fraction of the slot a pair waits in memory before the swaps run at
        the slot boundary on the slotted backend (0.5 ≙ generated mid-slot
        on average); the slot's length comes from ``attempts_per_slot`` (see
        :meth:`dwell_time`).  The event backend measures each pair's dwell
        instead.
    purify_rounds:
        Requested BBPSSW recurrence rounds per link; the affordable schedule
        is clipped per edge by its channel allocation
        (:func:`repro.workload.budget.purification_rounds_within_budget`)
        and to zero when the link fidelity is at or below the BBPSSW
        threshold of 0.5 (purification would then hurt).
    cutoff_fidelity:
        Memory cutoff policy: a stored pair whose post-decoherence fidelity
        falls below this threshold is discarded and the request fails.
    fidelity_target:
        End-to-end delivered-fidelity target; 0 disables it.  With a target,
        delivered requests are additionally classified as fidelity-served.
    fidelity_constrained:
        Wrap registry-built policies so a request only counts as served
        when its route can deliver ``fidelity_target`` (see
        :func:`repro.api.registry.apply_fidelity_constraint`).
    """

    swap_success: float = 1.0
    link_fidelity: float = 0.98
    memory_time: float = DECOHERENCE_TIME_S
    dwell_fraction: float = 0.5
    purify_rounds: int = 0
    cutoff_fidelity: float = 0.0
    fidelity_target: float = 0.0
    fidelity_constrained: bool = False

    def __post_init__(self) -> None:
        check_in_range(self.swap_success, 0.0, 1.0, "swap_success")
        check_in_range(self.link_fidelity, 0.0, 1.0, "link_fidelity")
        check_positive(self.memory_time, "memory_time")
        check_in_range(self.dwell_fraction, 0.0, 1.0, "dwell_fraction")
        if self.purify_rounds < 0:
            raise ValueError(f"purify_rounds must be non-negative, got {self.purify_rounds}")
        check_in_range(self.cutoff_fidelity, 0.0, 1.0, "cutoff_fidelity")
        check_in_range(self.fidelity_target, 0.0, 1.0, "fidelity_target")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def dwell_time(self, attempts_per_slot: int) -> float:
        """Seconds a stored pair waits in memory before the slot-end swaps,
        in a slot of ``attempts_per_slot`` entanglement attempts."""
        return slot_duration_seconds(attempts_per_slot) * self.dwell_fraction

    def decoherence_model(self) -> DecoherenceModel:
        """The :mod:`repro.physics.decoherence` model this configuration implies.

        All decay in the physical layer goes through this one model (scalar
        :func:`math.exp`, never a NumPy ufunc), so the engine, its reference
        and the analytic route model stay bit-identical by construction.
        """
        return DecoherenceModel(memory_time=self.memory_time)

    def affordable_rounds(self, channels: int) -> int:
        """Purification rounds one edge can schedule given its allocation."""
        if self.purify_rounds <= 0 or self.link_fidelity <= PURIFICATION_THRESHOLD:
            return 0
        return purification_rounds_within_budget(channels, self.purify_rounds)

    def edge_fidelity_bound(self, attempts_per_slot: int) -> float:
        """Best-case delivered fidelity of one link (full purification, then decoherence).

        This is the optimistic per-edge fidelity the fidelity-constrained
        servability hook feeds into the analytic
        :class:`~repro.core.fidelity.RouteFidelityModel`: a route that misses
        the target even under this bound can never deliver it physically, so
        filtering it from the candidate set is exact, not heuristic.
        """
        rounds = 0
        if self.purify_rounds > 0 and self.link_fidelity > PURIFICATION_THRESHOLD:
            rounds = self.purify_rounds
        _, purified = purification_ladder(self.link_fidelity, rounds)
        return self.decoherence_model().fidelity_after(
            purified, self.dwell_time(attempts_per_slot)
        )

    def route_fidelity_model(self, attempts_per_slot: int):
        """The analytic route model matching this physical configuration.

        Used to re-rank (filter) candidate routes in fidelity-constrained
        mode; built on :class:`repro.core.fidelity.RouteFidelityModel`, whose
        chain composition is the same iterated Werner swap the engine uses.
        """
        from repro.core.fidelity import RouteFidelityModel  # lazy: avoids a package cycle

        return RouteFidelityModel(
            link_fidelity=self.edge_fidelity_bound(attempts_per_slot)
        )

    def build_engine(
        self, attempts_per_slot: int = DEFAULT_ATTEMPTS_PER_SLOT
    ) -> "PhysicalEngine":
        """A fresh engine (zeroed stats, empty plan caches) for one run in
        slots of ``attempts_per_slot`` attempts."""
        return PhysicalEngine(self, attempts_per_slot)


@dataclass
class PhysicalStats:
    """Physical-resource accounting of one engine run (all counters cumulative).

    ``requests`` counts every routed request presented to the engine;
    ``attempts`` those whose links all materialised (the rest are
    ``link_failures``).  Each attempt fails at exactly one stage —
    purification, cutoff or swapping — or is ``delivered``;
    ``fidelity_served`` is the subset of deliveries meeting the fidelity
    target (equal to ``delivered`` when no target is set).
    ``pairs_consumed`` is the raw Bell pairs spent by attempts (one per link
    plus the purification overhead ``2^rounds − 1``); ``fidelity_sum``
    accumulates delivered fidelity so that the mean is
    ``fidelity_sum / delivered``.
    """

    requests: int = 0
    link_failures: int = 0
    attempts: int = 0
    purify_rounds: int = 0
    purify_failures: int = 0
    cutoff_discards: int = 0
    swaps: int = 0
    swap_failures: int = 0
    delivered: int = 0
    fidelity_served: int = 0
    pairs_consumed: int = 0
    fidelity_sum: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        """A plain mapping (what run diagnostics carry and merges consume)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def mean_delivered_fidelity(self) -> float:
        """Mean fidelity over delivered requests (0 when nothing delivered)."""
        if self.delivered == 0:
            return 0.0
        return self.fidelity_sum / self.delivered


@dataclass(frozen=True)
class EdgePlan:
    """The deterministic per-edge schedule implied by one channel allocation.

    Everything that does not need randomness is resolved here once per
    distinct channel count: the affordable purification rounds and their
    per-round success probabilities, the purified fidelity, the fidelity of
    the stored pair after the slotted backend's fixed dwell, whether it
    survives the cutoff policy then, and the raw pairs the schedule
    consumes.
    """

    channels: int
    rounds: int
    round_probs: Tuple[float, ...]
    purified: float
    fidelity: float
    cutoff_ok: bool
    pairs_consumed: int


@dataclass(frozen=True)
class PhysicalSlotOutcome:
    """Per-request delivery outcome of one slot, aligned with the input order.

    ``expired_pairs`` counts the stored pairs whose measured dwell decayed
    them below the cutoff, over every request whose links all materialised
    (0 without dwells).
    """

    delivered: Tuple[bool, ...]
    fidelities: Tuple[float, ...]
    fidelity_ok: Tuple[bool, ...]
    expired_pairs: int


class PhysicalEngine:
    """The delivery chain of one run, on either backend.

    Holds the model, the cumulative :class:`PhysicalStats`, the per-channel
    :class:`EdgePlan` cache and the per-allocation chain-fidelity memo.
    :meth:`realize_slot` schedules every draw of a slot and takes one
    batched draw.  Without dwells each pair waits the slotted backend's
    fixed dwell, and the plan and chain memos serve every fidelity; with
    the event backend's measured dwells each stored fidelity is computed
    from its own dwell (no memo is keyed by a measured dwell, which would
    grow without bound).  All deterministic fidelity algebra runs through
    the same scalar helpers here, which is what keeps
    :class:`ReferencePhysicalEngine` bit-identical.
    """

    def __init__(
        self, model: PhysicalModel, attempts_per_slot: int = DEFAULT_ATTEMPTS_PER_SLOT
    ):
        self.model = model
        self.dwell_time = model.dwell_time(attempts_per_slot)
        self.stats = PhysicalStats()
        self._decoherence = model.decoherence_model()
        self._plans: Dict[int, EdgePlan] = {}
        self._chain_cache: Dict[Tuple[int, ...], float] = {}

    def decohered_fidelity(self, fidelity: float) -> float:
        """``fidelity`` after waiting out the slot dwell in quantum memory."""
        return self._decoherence.fidelity_after(fidelity, self.dwell_time)

    # ------------------------------------------------------------------ #
    # Deterministic schedules (shared with the reference engine)
    # ------------------------------------------------------------------ #
    def plan_for(self, channels: int) -> EdgePlan:
        """The :class:`EdgePlan` of an edge allocated ``channels`` channels."""
        plan = self._plans.get(channels)
        if plan is None:
            rounds = self.model.affordable_rounds(channels)
            round_probs, purified = purification_ladder(self.model.link_fidelity, rounds)
            fidelity = self.decohered_fidelity(purified)
            plan = EdgePlan(
                channels=channels,
                rounds=rounds,
                round_probs=round_probs,
                purified=purified,
                fidelity=fidelity,
                cutoff_ok=fidelity >= self.model.cutoff_fidelity,
                pairs_consumed=2**rounds,
            )
            self._plans[channels] = plan
        return plan

    def chain_fidelity(self, plans: Sequence[EdgePlan]) -> float:
        """Delivered end-to-end fidelity of a route with these edge plans (memoised)."""
        key = tuple(plan.channels for plan in plans)
        fidelity = self._chain_cache.get(key)
        if fidelity is None:
            fidelity = fidelity_of_chain(plan.fidelity for plan in plans)
            self._chain_cache[key] = fidelity
        return fidelity

    def _schedule(self, items: Sequence[PhysicalItem]) -> List[Tuple[int, List[EdgePlan]]]:
        """Count the slot's requests; returns each attempt's index and edge plans.

        An attempt is a request whose links all materialised; the rest are
        link failures and draw nothing.
        """
        stats = self.stats
        attempts: List[Tuple[int, List[EdgePlan]]] = []
        for index, (route, allocation, links_ok) in enumerate(items):
            if not links_ok:
                continue
            plans = [self.plan_for(int(allocation.get(key, 0))) for key in route.edges]
            for plan in plans:
                stats.pairs_consumed += plan.pairs_consumed
                stats.purify_rounds += plan.rounds
            stats.swaps += len(plans) - 1
            attempts.append((index, plans))
        stats.requests += len(items)
        stats.attempts += len(attempts)
        stats.link_failures += len(items) - len(attempts)
        return attempts

    def _attribute(
        self,
        count: int,
        attempts: Sequence[Tuple[int, Sequence[EdgePlan]]],
        results: Sequence[Tuple[bool, bool]],
        dwells: Optional[Dwells],
    ) -> PhysicalSlotOutcome:
        """The slot's outcome from each attempt's ``(purify_ok, swap_ok)``.

        Each attempt fails at the first failed stage (purify → cutoff →
        swap) or is delivered.  Without dwells the cutoff and the delivered
        fidelity come from the memoised plans; with them, from each stored
        pair's fidelity after its own dwell.
        """
        stats = self.stats
        model = self.model
        decay = self._decoherence.fidelity_after
        delivered = [False] * count
        fidelities = [0.0] * count
        fidelity_ok = [False] * count
        expired = 0
        for (index, plans), (purify_ok, swap_ok) in zip(attempts, results):
            if dwells is None:
                cutoff_ok = all(plan.cutoff_ok for plan in plans)
            else:
                stored = [
                    decay(plan.purified, max(0.0, dwell))
                    for plan, dwell in zip(plans, dwells[index])
                ]
                cutoff_ok = min(stored) >= model.cutoff_fidelity
                if not cutoff_ok:
                    expired += sum(1 for fidelity in stored if fidelity < model.cutoff_fidelity)
            if not purify_ok:
                stats.purify_failures += 1
            elif not cutoff_ok:
                stats.cutoff_discards += 1
            elif not swap_ok:
                stats.swap_failures += 1
            else:
                fidelity = self.chain_fidelity(plans) if dwells is None else fidelity_of_chain(stored)
                stats.delivered += 1
                stats.fidelity_sum += fidelity
                delivered[index] = True
                fidelities[index] = fidelity
                ok = model.fidelity_target <= 0.0 or fidelity >= model.fidelity_target
                fidelity_ok[index] = ok
                if ok:
                    stats.fidelity_served += 1
        return PhysicalSlotOutcome(
            delivered=tuple(delivered),
            fidelities=tuple(fidelities),
            fidelity_ok=tuple(fidelity_ok),
            expired_pairs=expired,
        )

    def realize_slot(
        self,
        items: Sequence[PhysicalItem],
        seed: SeedLike = None,
        dwells: Optional[Dwells] = None,
    ) -> PhysicalSlotOutcome:
        """Run one slot's requests through the chain with one batched draw.

        Assembles the slot's success-threshold vector — every purification
        round of every link, then every swap, request by request in input
        order — and realises it with a single batched uniform draw
        (:func:`repro.physics.entanglement.sample_successes`).  ``dwells``
        (aligned with ``items``) replaces the fixed slot dwell with each
        link's measured one.
        """
        rng = as_generator(seed)
        attempts = self._schedule(items)
        swap_success = self.model.swap_success
        thresholds: List[float] = []
        slices: List[Tuple[int, int, int]] = []
        for _, plans in attempts:
            start = len(thresholds)
            for plan in plans:
                thresholds.extend(plan.round_probs)
            purified = len(thresholds)
            if swap_success < 1.0:
                thresholds.extend([swap_success] * (len(plans) - 1))
            slices.append((start, purified, len(thresholds)))
        outcomes = sample_successes(thresholds, rng).tolist()
        results = [
            (all(outcomes[start:purified]), all(outcomes[purified:end]))
            for start, purified, end in slices
        ]
        return self._attribute(len(items), attempts, results, dwells)

    # ------------------------------------------------------------------ #
    # Simulator integration (the physical step of the per-slot pipeline)
    # ------------------------------------------------------------------ #
    def realize_decision(
        self,
        items: Sequence[Tuple[Route, Mapping[EdgeKey, int]]],
        realized: Sequence[bool],
        num_unserved: int,
        seed: SeedLike = None,
        dwells: Optional[Dwells] = None,
    ) -> PhysicalSlotOutcome:
        """Run one slot decision's served routes through the delivery chain.

        ``items`` are the served requests' ``(route, allocation)`` pairs in
        decision order, ``realized`` their link-layer outcomes and
        ``dwells`` their measured memory dwells on the event backend.  The
        returned outcome pads the unserved requests as failures, mirroring
        how the simulators pad the link-layer lists, so its sequences align
        with the slot record's.
        """
        outcome = self.realize_slot(
            [(route, allocation, bool(ok)) for (route, allocation), ok in zip(items, realized)],
            seed=seed,
            dwells=dwells,
        )
        return PhysicalSlotOutcome(
            delivered=outcome.delivered + (False,) * num_unserved,
            fidelities=outcome.fidelities + (0.0,) * num_unserved,
            fidelity_ok=outcome.fidelity_ok + (False,) * num_unserved,
            expired_pairs=outcome.expired_pairs,
        )


class ReferencePhysicalEngine(PhysicalEngine):
    """The per-pair reference the tests hold the batched draw against.

    Walks every request's chain with the granular physics entry points
    (:func:`repro.physics.purification.sample_purification` per link,
    :func:`repro.physics.swapping.sample_swap_successes` per chain): one
    scalar draw per operation.  Every scheduled operation consumes its
    randomness even after an earlier failure, so the draw schedule matches
    :meth:`PhysicalEngine.realize_slot` exactly.
    """

    def realize_slot(
        self,
        items: Sequence[PhysicalItem],
        seed: SeedLike = None,
        dwells: Optional[Dwells] = None,
    ) -> PhysicalSlotOutcome:
        rng = as_generator(seed)
        model = self.model
        attempts = self._schedule(items)
        results: List[Tuple[bool, bool]] = []
        for _, plans in attempts:
            purify_ok = True
            for plan in plans:
                if plan.rounds:
                    sampled = sample_purification(model.link_fidelity, plan.rounds, seed=rng)
                    purify_ok = purify_ok and sampled.succeeded
            swap_ok = True
            if len(plans) > 1 and model.swap_success < 1.0:
                swaps = sample_swap_successes(len(plans) - 1, model.swap_success, seed=rng)
                swap_ok = bool(swaps.all())
            results.append((purify_ok, swap_ok))
        return self._attribute(len(items), attempts, results, dwells)
