"""Runtime invariant guard: per-layer semantic checks of a running simulation.

The reproduction's correctness contract so far has been "tables
byte-identical across layouts" — a strong *relative* guarantee that says
nothing about the *semantic* invariants of the paper: feasible integer
allocations against the slot's capacity rows, Lyapunov virtual-queue
conservation, fidelities inside ``[0, 1]``, serving/backlog accounting that
sums up, fault availability consistent with the precompiled schedule.
:class:`InvariantGuard` checks those invariants while a simulation runs.

The guard is strictly **observational**: every check only reads state and
either passes or raises :class:`InvariantViolation`.  It never draws from a
random stream and never mutates simulator state, so enabling it cannot
change any result — ``guard_level="strict"`` produces tables byte-identical
to ``"off"``.  At level ``"off"`` no guard object is built at all
(:meth:`InvariantGuard.build` returns ``None``) and every call site is a
single ``is not None`` test, so disabled runs keep their historical cost.

Levels
------
``off``
    No checks, no guard object, no ``diagnostics["guard"]`` entry.
``cheap``
    O(1)-per-slot accounting checks: servability of the served set, queue
    non-negativity, fidelity ranges, counter conservation at run end.
``strict``
    Everything in ``cheap`` plus full per-slot constraint-row arithmetic,
    virtual-queue recursion replay, kernel dual-bound certification and a
    fault-schedule availability recount.

The environment variable ``REPRO_GUARD`` overrides the configured level at
guard-construction time (see :func:`repro.utils.validation.effective_level`)
without touching the configuration itself — scenario dictionaries,
checkpoint keys and result stores are identical whether the override is set
or not.
``REPRO_FORCE_BREACH=<slot>`` injects a deterministic synthetic breach at
the given slot (used by the crash-replay round-trip tests and CI).
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.validation import effective_level

#: The three guard levels, in increasing order of scrutiny.
GUARD_LEVELS = ("off", "cheap", "strict")

#: Environment override of the configured guard level.
GUARD_ENV_VAR = "REPRO_GUARD"

#: Environment hook injecting a synthetic breach at one slot (an integer).
FORCE_BREACH_ENV_VAR = "REPRO_FORCE_BREACH"

#: Tolerance of the floating-point conservation and bound checks.  Loose
#: enough to absorb accumulated rounding over long horizons, tight enough
#: that any real accounting bug (off by one request/qubit) trips it.
_TOLERANCE = 1e-6


def forced_breach_slot() -> Optional[int]:
    """The slot at which a synthetic breach is injected, or ``None``."""
    raw = os.environ.get(FORCE_BREACH_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"invalid {FORCE_BREACH_ENV_VAR}={raw!r}; expected an integer slot"
        )


class InvariantViolation(RuntimeError):
    """One failed invariant check.

    Carries the check name, the layer pack it belongs to, the slot (when
    per-slot) and a details mapping — everything the flight recorder needs
    to write a repro bundle and the replay harness needs to re-assert the
    identical breach.  Picklable, so a breach inside a worker process
    crosses the pool boundary intact.
    """

    def __init__(
        self,
        check: str,
        layer: str,
        message: str,
        slot: Optional[int] = None,
        details: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.check = str(check)
        self.layer = str(layer)
        self.slot = slot if slot is None else int(slot)
        self.details = dict(details) if details else {}
        where = f" (slot {slot})" if slot is not None else ""
        super().__init__(f"[{layer}:{check}]{where} {message}")
        self.message = str(message)
        #: Filled in by the crash-bundle path after the bundle is written.
        self.bundle_path: Optional[str] = None

    def __reduce__(self):
        return (
            self.__class__,
            (self.check, self.layer, self.message, self.slot, self.details),
            {"bundle_path": self.bundle_path},
        )

    def verdict(self) -> Dict[str, object]:
        """The JSON-friendly description stored in repro bundles."""
        return {
            "check": self.check,
            "layer": self.layer,
            "slot": self.slot,
            "message": self.message,
            # bundle_path is post-dump bookkeeping, not breach identity —
            # including it would make the replayed bundle's key diverge.
            "details": {
                key: repr(value)
                for key, value in self.details.items()
                if key != "bundle_path"
            },
        }

    def matches(self, verdict: Mapping[str, object]) -> bool:
        """Whether this breach is the same (check, layer, slot) as ``verdict``."""
        return (
            self.check == verdict.get("check")
            and self.layer == verdict.get("layer")
            and self.slot == verdict.get("slot")
        )


class InvariantGuard:
    """Per-layer invariant check packs over one simulation run.

    Build one per run with :meth:`build` (which applies the environment
    override and returns ``None`` at level ``off``), call the ``check_*``
    methods from the layer they verify, and read :meth:`stats` at run end —
    the summable counters surface as ``diagnostics["guard"]``.
    """

    __slots__ = ("level", "strict", "force_slot", "counters", "_forced_fired")

    def __init__(self, level: str, force_slot: Optional[int] = None) -> None:
        if level not in GUARD_LEVELS or level == "off":
            raise ValueError(
                f"an InvariantGuard runs at 'cheap' or 'strict', got {level!r}"
            )
        self.level = level
        self.strict = level == "strict"
        self.force_slot = force_slot
        self._forced_fired = False
        self.counters: Dict[str, int] = {
            "slots": 0,
            "checks": 0,
            "breaches": 0,
            "checks_core": 0,
            "checks_kernel": 0,
            "checks_physical": 0,
            "checks_serving": 0,
            "checks_faults": 0,
        }

    @classmethod
    def build(
        cls, level: str = "off", force_slot: Optional[int] = None
    ) -> Optional["InvariantGuard"]:
        """The guard for ``level`` after env overrides; ``None`` when off.

        ``force_slot`` defaults to the ``REPRO_FORCE_BREACH`` environment
        hook; pass an explicit integer to force a breach programmatically
        (the replay harness does).
        """
        effective = effective_level(level, GUARD_ENV_VAR, GUARD_LEVELS)
        if effective not in GUARD_LEVELS:
            raise ValueError(
                f"unknown guard level {level!r}; choose from {', '.join(GUARD_LEVELS)}"
            )
        if effective == "off":
            return None
        if force_slot is None:
            force_slot = forced_breach_slot()
        return cls(effective, force_slot=force_slot)

    def stats(self) -> Dict[str, int]:
        """Summable check counters (the ``diagnostics["guard"]`` mapping)."""
        return dict(self.counters)

    # ------------------------------------------------------------------ #
    # Breach plumbing
    # ------------------------------------------------------------------ #
    def _breach(
        self,
        check: str,
        layer: str,
        message: str,
        slot: Optional[int] = None,
        details: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.counters["breaches"] += 1
        raise InvariantViolation(check, layer, message, slot=slot, details=details)

    def _count(self, layer: str, n: int = 1) -> None:
        self.counters["checks"] += n
        self.counters[f"checks_{layer}"] += n

    # ------------------------------------------------------------------ #
    # Slot lifecycle (both simulation backends and the serving loop)
    # ------------------------------------------------------------------ #
    def begin_slot(self, t: int) -> None:
        """Mark the start of slot ``t``; fires the forced synthetic breach."""
        self.counters["slots"] += 1
        if (
            self.force_slot is not None
            and not self._forced_fired
            and t >= self.force_slot
        ):
            self._forced_fired = True
            self._breach(
                "forced-breach",
                "guard",
                f"synthetic breach injected at slot {t} "
                f"({FORCE_BREACH_ENV_VAR}={self.force_slot})",
                slot=t,
                details={"requested_slot": self.force_slot},
            )

    # ------------------------------------------------------------------ #
    # Core + kernel packs: the per-slot decision
    # ------------------------------------------------------------------ #
    def check_decision(
        self, context, decision, queue_length: Optional[float] = None
    ) -> None:
        """Core/kernel invariants of one slot decision.

        Core: the served set is a subset of the servable requests and the
        Lyapunov queue is non-negative and finite.  Kernel (strict): the
        integer allocation satisfies every node, edge and budget constraint
        row of the slot — the same arithmetic the compiled structure's rows
        encode, recomputed independently from the raw allocation.
        """
        t = context.t
        self._count("core")
        servable = set(context.servable_requests())
        overserved = [r for r in decision.served_requests if r not in servable]
        if overserved:
            self._breach(
                "served-subset",
                "core",
                f"{len(overserved)} served request(s) had no candidate route",
                slot=t,
                details={"requests": overserved},
            )
        if queue_length is not None:
            if math.isnan(queue_length) or math.isinf(queue_length):
                self._breach(
                    "queue-finite",
                    "core",
                    f"virtual queue length is {queue_length}",
                    slot=t,
                )
            if queue_length < 0.0:
                self._breach(
                    "queue-nonnegative",
                    "core",
                    f"virtual queue length went negative: {queue_length}",
                    slot=t,
                )
        cost = decision.cost()
        if cost < 0:
            self._breach(
                "cost-nonnegative", "core", f"slot cost is negative: {cost}", slot=t
            )
        if not self.strict:
            return
        # Strict: recompute every constraint row from the raw allocation.
        self._count("kernel")
        snapshot = context.snapshot
        for node, used in decision.node_usage().items():
            capacity = snapshot.available_qubits(node)
            if used > capacity:
                self._breach(
                    "node-row",
                    "kernel",
                    f"node {node!r} allocation {used} exceeds capacity {capacity}",
                    slot=t,
                    details={"node": node, "used": used, "capacity": capacity},
                )
        for key, used in decision.edge_usage().items():
            capacity = snapshot.available_channels(key)
            if used > capacity:
                self._breach(
                    "edge-row",
                    "kernel",
                    f"edge {key!r} allocation {used} exceeds capacity {capacity}",
                    slot=t,
                    details={"edge": key, "used": used, "capacity": capacity},
                )
        for (request, key), value in decision.allocation.items():
            if value < 1:
                self._breach(
                    "allocation-integral",
                    "kernel",
                    f"allocation for {request} on {key} is {value} < 1",
                    slot=t,
                )

    def check_objective(self, value: float, slot: Optional[int] = None) -> None:
        """No-NaN check of a per-slot objective/utility value.

        ``-inf`` is a legitimate utility (a zero success probability under
        the log); ``NaN`` and ``+inf`` never are.
        """
        self._count("kernel")
        if math.isnan(value) or value == math.inf:
            self._breach(
                "objective-finite",
                "kernel",
                f"objective/utility is {value}",
                slot=slot,
            )

    def check_kernel_solution(self, relaxed, rounded) -> None:
        """Kernel pack: no NaN in the outcome objectives (strict only).

        Called from :meth:`SlotKernel._build_outcome` via the ambient hook
        (:mod:`repro.guard.hooks`) — the single point every solved pair
        passes through.  The relaxed and rounded objectives may legitimately
        be ``-inf`` (an infeasible/zero-probability combination under the
        log); ``NaN`` and ``+inf`` never are.
        """
        if not self.strict:
            return
        self._count("kernel")
        for label, objective in (
            ("relaxed", relaxed.objective),
            ("rounded", rounded.objective),
        ):
            value = float(objective)
            if math.isnan(value) or value == math.inf:
                self._breach(
                    f"{label}-objective-finite",
                    "kernel",
                    f"{label} objective is {value}",
                )

    def check_kernel_dual(
        self,
        best_dual: float,
        best_primal: float,
        multipliers=None,
        gap_tolerance: float = 0.0,
    ) -> None:
        """Kernel pack: solver-internal dual certificates (strict only).

        Called from :meth:`SlotKernel._solve` via the ambient hook just
        before the solution is finalised: the dual multipliers are finite
        and non-negative, and the best dual value actually bounds the best
        feasible primal value from above (weak duality — within the
        solver's certified gap tolerance).  ``best_dual`` may be ``inf``
        when the solve took a direct/exact shortcut and never produced a
        dual iterate; the bound check is skipped then.
        """
        if not self.strict:
            return
        self._count("kernel")
        if multipliers is not None:
            values = [float(v) for v in multipliers]
            if any(math.isnan(v) or math.isinf(v) for v in values):
                self._breach(
                    "multipliers-finite",
                    "kernel",
                    "dual multipliers contain NaN/inf",
                    details={"multipliers": values},
                )
            if any(v < 0.0 for v in values):
                self._breach(
                    "multipliers-nonnegative",
                    "kernel",
                    "dual multipliers went negative",
                    details={"multipliers": values},
                )
        if math.isfinite(best_dual) and math.isfinite(best_primal):
            slack = gap_tolerance * max(1.0, abs(best_primal)) + _TOLERANCE
            if best_dual < best_primal - slack:
                self._breach(
                    "dual-bounds-primal",
                    "kernel",
                    f"dual bound {best_dual} fell below the feasible primal "
                    f"value {best_primal}",
                    details={
                        "best_dual": best_dual,
                        "best_primal": best_primal,
                        "gap_tolerance": gap_tolerance,
                    },
                )

    def check_queue_history(
        self,
        history: Sequence[float],
        per_slot_budget: Optional[float] = None,
        costs: Optional[Sequence[float]] = None,
    ) -> None:
        """Core pack: the whole virtual-queue trajectory at run end.

        Cheap: every length is non-negative and finite.  Strict, when the
        per-slot costs are known: replay the recursion
        ``q_{t+1} = max(0, q_t + c_t − C/T)`` and require the recorded
        history to match it exactly (within float tolerance).
        """
        self._count("core")
        for index, value in enumerate(history):
            if math.isnan(value) or math.isinf(value) or value < 0.0:
                self._breach(
                    "queue-history",
                    "core",
                    f"virtual queue history[{index}] is {value}",
                    slot=index,
                )
        if (
            self.strict
            and per_slot_budget is not None
            and costs is not None
            and len(history) == len(costs) + 1
        ):
            self._count("core")
            for index, cost in enumerate(costs):
                expected = max(0.0, history[index] + float(cost) - per_slot_budget)
                observed = history[index + 1]
                if abs(observed - expected) > _TOLERANCE * max(1.0, expected):
                    self._breach(
                        "queue-conservation",
                        "core",
                        f"queue update at slot {index} recorded {observed}, "
                        f"recursion gives {expected}",
                        slot=index,
                        details={
                            "previous": history[index],
                            "cost": cost,
                            "per_slot_budget": per_slot_budget,
                        },
                    )

    def check_policy_final(self, policy) -> None:
        """Core pack at run end, introspecting the policy's virtual queue.

        Works for any policy exposing a ``virtual_queue`` (OSCAR and the
        Lyapunov-style baselines); silently skips policies without one.
        """
        queue = getattr(policy, "virtual_queue", None)
        history = getattr(queue, "history", None)
        if not history:
            return
        costs = None
        tracker = getattr(policy, "budget_tracker", None)
        if tracker is not None:
            costs = getattr(tracker, "per_slot_costs", None)
        self.check_queue_history(
            history,
            per_slot_budget=getattr(queue, "per_slot_budget", None),
            costs=costs,
        )

    # ------------------------------------------------------------------ #
    # Physical pack
    # ------------------------------------------------------------------ #
    def check_fidelities(
        self,
        fidelities: Sequence[float],
        slot: Optional[int] = None,
        model=None,
    ) -> None:
        """Physical pack: delivered fidelities live in ``[0, 1]``.

        Strict, with a model (the lane's
        :class:`~repro.simulation.physical.PhysicalEngine`, on either
        backend, or anything with a ``dwell_time`` and
        ``decohered_fidelity``): decoherence is monotone non-increasing —
        waiting out the slot dwell can never raise a fidelity.
        """
        self._count("physical")
        for value in fidelities:
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                self._breach(
                    "fidelity-range",
                    "physical",
                    f"fidelity {value} outside [0, 1]",
                    slot=slot,
                )
        if self.strict and model is not None and fidelities:
            self._count("physical")
            for value in fidelities:
                if value <= 0.0:
                    continue
                decayed = model.decohered_fidelity(value)
                if decayed > value + _TOLERANCE:
                    self._breach(
                        "decoherence-monotone",
                        "physical",
                        f"decoherence raised fidelity {value} to {decayed}",
                        slot=slot,
                        details={"dwell_time": model.dwell_time},
                    )

    def check_physical_stats(self, stats: Optional[Mapping[str, float]]) -> None:
        """Physical pack at run end: engine counter conservation.

        Every routed request either lost a link or became an attempt; every
        attempt fails at exactly one stage or is delivered; the
        fidelity-target subset cannot exceed the deliveries; the fidelity
        accumulator is bounded by one per delivery.
        """
        if not stats:
            return
        self._count("physical")
        requests = stats.get("requests", 0)
        attempts = stats.get("attempts", 0)
        link_failures = stats.get("link_failures", 0)
        if requests != attempts + link_failures:
            self._breach(
                "physical-request-conservation",
                "physical",
                f"requests ({requests}) != attempts ({attempts}) + "
                f"link_failures ({link_failures})",
                details=dict(stats),
            )
        delivered = stats.get("delivered", 0)
        staged = (
            stats.get("purify_failures", 0)
            + stats.get("cutoff_discards", 0)
            + stats.get("swap_failures", 0)
            + delivered
        )
        if attempts != staged:
            self._breach(
                "physical-attempt-conservation",
                "physical",
                f"attempts ({attempts}) != stage outcomes ({staged})",
                details=dict(stats),
            )
        if stats.get("fidelity_served", 0) > delivered:
            self._breach(
                "physical-fidelity-subset",
                "physical",
                f"fidelity_served ({stats.get('fidelity_served')}) exceeds "
                f"delivered ({delivered})",
                details=dict(stats),
            )
        fidelity_sum = float(stats.get("fidelity_sum", 0.0))
        if fidelity_sum < -_TOLERANCE or fidelity_sum > delivered + _TOLERANCE:
            self._breach(
                "physical-fidelity-sum",
                "physical",
                f"fidelity_sum ({fidelity_sum}) outside [0, delivered={delivered}]",
                details=dict(stats),
            )

    # ------------------------------------------------------------------ #
    # Serving pack
    # ------------------------------------------------------------------ #
    def check_serving_slot(
        self,
        t: int,
        table,
        realized: int,
        merged_backlog: int,
        queue_length: float,
    ) -> None:
        """Serving pack per slot, read off the columns of the
        :class:`~repro.serving.scheduler.SessionTable` after its step of
        ``t``; ``realized`` and ``merged_backlog`` are the slot's reports."""
        self._count("serving")
        if math.isnan(queue_length) or queue_length < 0.0:
            self._breach(
                "serving-queue",
                "serving",
                f"serving virtual queue is {queue_length}",
                slot=t,
            )
        recomputed = int(table.backlog.sum())
        if recomputed != merged_backlog:
            self._breach(
                "serving-backlog-merge",
                "serving",
                f"reported backlog {merged_backlog} != per-session sum {recomputed}",
                slot=t,
            )
        if self.strict:
            self._count("serving")
            served = table.served
            if int(served.sum()) != realized:
                self._breach(
                    "serving-realization-shape",
                    "serving",
                    f"sessions served {int(served.sum())} request(s) but "
                    f"{realized} were realized",
                    slot=t,
                )
            bad = (served < 0) | (served > table.capacity) | (table.backlog < 0)
            if bad.any():
                self._breach(
                    "serving-entry-range",
                    "serving",
                    f"session(s) {table.ids[bad].tolist()} served outside "
                    "[0, capacity] or hold a negative backlog",
                    slot=t,
                )
            mismatched = table.queued() != table.backlog
            if mismatched.any() or int(table.queue[2].sum()) != recomputed:
                self._breach(
                    "serving-queue-batches",
                    "serving",
                    f"queued batches do not sum to the backlog column (sessions "
                    f"{table.ids[mismatched].tolist()})",
                    slot=t,
                )

    def check_serving_totals(self, counters: Mapping[str, float]) -> None:
        """Serving pack at run end: session and request accounting closes."""
        self._count("serving")
        arrived = counters.get("sessions_arrived", 0)
        admitted = counters.get("sessions_admitted", 0)
        rejected = counters.get("sessions_rejected", 0)
        if arrived != admitted + rejected:
            self._breach(
                "serving-admission-conservation",
                "serving",
                f"sessions_arrived ({arrived}) != admitted ({admitted}) + "
                f"rejected ({rejected})",
                details=dict(counters),
            )
        if counters.get("sessions_departed", 0) > admitted:
            self._breach(
                "serving-departure-bound",
                "serving",
                f"sessions_departed ({counters.get('sessions_departed')}) exceeds "
                f"admitted ({admitted})",
                details=dict(counters),
            )
        if counters.get("requests_realized", 0) > counters.get("requests_served", 0):
            self._breach(
                "serving-realization-bound",
                "serving",
                f"requests_realized ({counters.get('requests_realized')}) exceeds "
                f"requests_served ({counters.get('requests_served')})",
                details=dict(counters),
            )

    # ------------------------------------------------------------------ #
    # Faults pack
    # ------------------------------------------------------------------ #
    def check_fault_stats(self, schedule, stats: Mapping[str, float]) -> None:
        """Faults pack at run end: accounting matches the precompiled schedule.

        Cheap: the element-slot totals are consistent with the number of
        observed slots and the derived availability lands in ``[0, 1]``.
        Strict: recount the down element-slots directly from the schedule's
        per-slot states and require an exact match.
        """
        self._count("faults")
        slots = int(stats.get("slots", 0))
        element_slots = int(stats.get("element_slots", 0))
        down = int(stats.get("down_element_slots", 0))
        expected_elements = slots * schedule.num_elements
        if element_slots != expected_elements:
            self._breach(
                "fault-element-slots",
                "faults",
                f"element_slots ({element_slots}) != slots ({slots}) × "
                f"num_elements ({schedule.num_elements})",
                details=dict(stats),
            )
        if not 0 <= down <= max(element_slots, 0):
            self._breach(
                "fault-down-bound",
                "faults",
                f"down_element_slots ({down}) outside [0, {element_slots}]",
                details=dict(stats),
            )
        if self.strict:
            self._count("faults")
            recount = 0
            for t in range(slots):
                state = schedule.state_at(t)
                if state:
                    recount += state.down_elements
                availability = schedule.availability_at(t)
                if not 0.0 <= availability <= 1.0:
                    self._breach(
                        "fault-availability-range",
                        "faults",
                        f"availability_at({t}) = {availability} outside [0, 1]",
                        slot=t,
                    )
            if recount != down:
                self._breach(
                    "fault-schedule-recount",
                    "faults",
                    f"down_element_slots ({down}) disagrees with a schedule "
                    f"recount ({recount}) over {slots} slot(s)",
                    details=dict(stats),
                )
