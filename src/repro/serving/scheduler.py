"""The sharded session scheduler: the serving layer's long-lived service loop.

Active sessions are partitioned across shards by a consistent hash of the
session id (:func:`repro.utils.rng.hash_string`, process-independent), each
shard advances its sessions independently over one *merge window* of slots,
and the scheduler merges the shard reports at window boundaries — updating
the Lyapunov virtual queue, the global backlog and the serving statistics
the admission controller observes.  With ``shard_workers > 1`` the window
advances run in a process pool (the PR 2 work-queue pattern applied to a
service loop instead of a batch sweep).

**Byte-identity invariant.**  A session's whole trajectory is a pure
function of its :class:`~repro.serving.arrivals.SessionSpec` — its private
seed drives request counts, realisations and renewals; its route (and hence
per-request cost/success probability) is resolved centrally at admission
time.  Shards only *group* this work, and the merge aggregates per-slot
entries in canonical session-id order, so the produced
:class:`~repro.simulation.results.SimulationResult` is byte-identical for
any shard count and for serial vs. process-pool execution under a fixed
seed.  ``tests/test_serving_scheduler.py`` pins this invariant.

Per-request service model: a served request consumes the session route's
``hops + 1`` qubits (one per node along the path) and succeeds with the
product of its edges' single-channel slot success probabilities — the
analytic link-layer model, deliberately cheap so a run sustains ~10⁵
simulated requests (``benchmarks/serving_bench.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.virtual_queue import VirtualQueue
from repro.faults.model import FaultSchedule
from repro.faults.supervisor import PoolSupervisor
from repro.network.graph import QDNGraph
from repro.network.routes import build_candidate_routes
from repro.serving.admission import (
    AdmissionPolicy,
    AdmissionState,
    canonical_admission_name,
    make_admission_policy,
)
from repro.serving.arrivals import ArrivalProcess, SessionSpec, build_arrivals
from repro.simulation.clock import SlotClock
from repro.simulation.pipeline import RunEnvelope
from repro.simulation.results import SimulationResult, SlotRecord
from repro.telemetry.tracer import TelemetryModel, maybe_span
from repro.utils.rng import SeedLike, as_generator, derive_seed, hash_string
from repro.utils.validation import check_non_negative, check_positive

#: The line-up key every serving run's result is stored under.
SERVING_LINEUP_NAME = "serving"


@dataclass(frozen=True)
class ServingModel:
    """The flat serving parameters (built by ``ExperimentConfig.serving_model()``)."""

    arrival_kind: str = "poisson"
    arrival_rate: float = 0.5
    arrival_trace: Optional[Tuple[int, ...]] = None
    session_rate: float = 2.0
    session_lifetime: float = 20.0
    renew_probability: float = 0.0
    session_budget: float = 8.0
    admission: str = "backlog-threshold"
    admission_threshold: float = 200.0
    token_rate: float = 1.0
    token_burst: float = 4.0
    shards: int = 1
    merge_every: int = 1
    shard_workers: int = 1
    shard_timeout_s: float = 300.0
    min_availability: float = 0.9

    def __post_init__(self) -> None:
        check_non_negative(self.arrival_rate, "arrival_rate")
        check_non_negative(self.session_rate, "session_rate")
        check_positive(self.session_lifetime, "session_lifetime")
        check_non_negative(self.session_budget, "session_budget")
        check_positive(self.shards, "shards")
        check_positive(self.merge_every, "merge_every")
        check_positive(self.shard_workers, "shard_workers")
        check_positive(self.shard_timeout_s, "shard_timeout_s")
        if not 0.0 <= self.min_availability <= 1.0:
            raise ValueError(
                f"min_availability must be in [0, 1], got {self.min_availability}"
            )
        canonical_admission_name(self.admission)  # fail fast on typos

    def build_arrivals(self) -> ArrivalProcess:
        """A fresh arrival process for one run."""
        return build_arrivals(
            self.arrival_kind,
            arrival_rate=self.arrival_rate,
            arrival_trace=self.arrival_trace,
            request_rate=self.session_rate,
            mean_lifetime=self.session_lifetime,
            renew_probability=self.renew_probability,
        )

    def build_admission(self) -> AdmissionPolicy:
        """A fresh admission policy for one run."""
        canonical = canonical_admission_name(self.admission)
        parameters = {
            "backlog-threshold": {"threshold": self.admission_threshold},
            "token-bucket": {"rate": self.token_rate, "burst": self.token_burst},
            "availability-gate": {
                "min_availability": self.min_availability,
                "threshold": self.admission_threshold,
            },
        }.get(canonical, {})
        return make_admission_policy(canonical, **parameters)


class _SlotEntry(NamedTuple):
    """One session's activity in one slot (a shard's unit of report)."""

    session_id: int
    arrived: int
    served: int
    cost: int
    prob: float
    realized: Tuple[bool, ...]
    sojourn: int
    dropped: int
    backlog: int
    departed: bool
    renewed: bool
    interrupted: int


#: The elements a session's route occupies: (nodes, edge keys).  A shard
#: intersects these with the slot's down elements to decide whether the
#: session can be served at all.
RouteElements = Tuple[FrozenSet, FrozenSet]

#: A slot's failed elements as shipped to shards: (down nodes, down edges).
DownElements = Tuple[FrozenSet, FrozenSet]

#: One admitted join shipped to a shard: the spec plus its centrally
#: resolved route economics (per-request qubit cost, per-request success
#: probability, requests servable per slot under the session budget) and
#: the elements its route occupies.
AdmittedJoin = Tuple[SessionSpec, int, float, int, RouteElements]


class _ServingSession:
    """Runtime state of one active session inside a shard (picklable)."""

    __slots__ = (
        "spec", "rng", "queue", "expires_at", "cost", "prob", "capacity",
        "elements",
    )

    def __init__(
        self,
        spec: SessionSpec,
        cost: int,
        prob: float,
        capacity: int,
        elements: RouteElements = (frozenset(), frozenset()),
    ):
        self.spec = spec
        self.rng = as_generator(spec.seed)
        self.queue: deque = deque()
        self.expires_at = spec.joined_slot + spec.lifetime
        self.cost = cost
        self.prob = prob
        self.capacity = capacity
        self.elements = elements

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def blocked_by(self, down: Optional[DownElements]) -> bool:
        """Whether a slot's failed elements cut this session's route."""
        if down is None:
            return False
        nodes, edges = self.elements
        return bool(nodes & down[0]) or bool(edges & down[1])

    def advance(self, t: int, down: Optional[DownElements] = None) -> _SlotEntry:
        """One slot of this session: arrivals, service, expiry/renewal.

        The draw order (request count, then one batch for realisations when
        anything was served, then at most one renewal draw) is fixed, so the
        session's stream is consumed identically on every shard layout.
        A slot whose failed elements (``down``) cut the session's route
        serves nothing — the would-be service count is reported as
        ``interrupted`` and the requests stay queued until repair.
        """
        spec = self.spec
        arrived = int(self.rng.poisson(spec.request_rate)) if spec.request_rate > 0 else 0
        for _ in range(arrived):
            self.queue.append(t)
        interrupted = 0
        if self.blocked_by(down):
            interrupted = min(len(self.queue), self.capacity)
            served = 0
        else:
            served = min(len(self.queue), self.capacity)
        sojourn = 0
        realized: Tuple[bool, ...] = ()
        if served:
            sojourn = sum(t - self.queue.popleft() for _ in range(served))
            draws = self.rng.random(served)
            realized = tuple(bool(draw < self.prob) for draw in draws)
        departed = renewed = False
        dropped = 0
        if t + 1 >= self.expires_at:
            if (
                spec.renew_probability > 0.0
                and self.rng.random() < spec.renew_probability
            ):
                renewed = True
                self.expires_at += spec.lifetime
            else:
                departed = True
                dropped = len(self.queue)
                self.queue.clear()
        return _SlotEntry(
            session_id=spec.session_id,
            arrived=arrived,
            served=served,
            cost=served * self.cost,
            prob=self.prob,
            realized=realized,
            sojourn=sojourn,
            dropped=dropped,
            backlog=len(self.queue),
            departed=departed,
            renewed=renewed,
            interrupted=interrupted,
        )


@dataclass
class _Shard:
    """One partition of the active sessions (state ships across processes)."""

    index: int
    sessions: Dict[int, _ServingSession] = field(default_factory=dict)

    def advance(
        self,
        slots: Sequence[int],
        joins: Mapping[int, List[AdmittedJoin]],
        down: Optional[Mapping[int, DownElements]] = None,
    ) -> List[List[_SlotEntry]]:
        """Advance every session over ``slots``; returns entries per slot.

        ``joins`` maps a slot to the sessions admitted *at* that slot (they
        start generating requests the slot they join).  ``down`` maps a
        slot to its failed elements (absent slots are healthy).  Departed
        sessions are removed from the shard.
        """
        per_slot: List[List[_SlotEntry]] = []
        for t in slots:
            for spec, cost, prob, capacity, elements in joins.get(t, ()):
                self.sessions[spec.session_id] = _ServingSession(
                    spec, cost=cost, prob=prob, capacity=capacity, elements=elements
                )
            slot_down = down.get(t) if down else None
            entries: List[_SlotEntry] = []
            gone: List[int] = []
            for session_id in sorted(self.sessions):
                entry = self.sessions[session_id].advance(t, slot_down)
                entries.append(entry)
                if entry.departed:
                    gone.append(session_id)
            for session_id in gone:
                del self.sessions[session_id]
            per_slot.append(entries)
        return per_slot


def _advance_shard_for_pool(
    shard: _Shard,
    slots: Sequence[int],
    joins: Mapping[int, List[AdmittedJoin]],
    down: Optional[Mapping[int, DownElements]] = None,
) -> Tuple[_Shard, List[List[_SlotEntry]]]:
    """Top-level pool target: advance one shard and ship its state back."""
    return shard, shard.advance(slots, joins, down)


def shard_for_session(session_id: int, shards: int) -> int:
    """Consistent-hash shard assignment (stable across processes and runs)."""
    return hash_string(f"session-{session_id}") % shards


class ServingSimulator:
    """Runs one open-system serving trial (see module docstring).

    Produces a standard :class:`~repro.simulation.results.SimulationResult`
    under the line-up name ``"serving"`` — per-slot records carry the
    arrivals, service counts, costs, per-request success probabilities and
    realisations, the Lyapunov queue length and the slot-clock timestamps —
    plus a ``diagnostics["serving"]`` mapping of summable counters
    (:func:`merge_serving_stats` aggregates them across trials and points).
    """

    def __init__(
        self,
        graph: QDNGraph,
        model: ServingModel,
        horizon: int,
        total_budget: float,
        initial_queue: float = 0.0,
        num_candidate_routes: int = 4,
        max_extra_hops: int = 2,
        clock: Optional[SlotClock] = None,
        faults: Optional[FaultSchedule] = None,
        guard_level: str = "off",
        telemetry: Optional[TelemetryModel] = None,
    ):
        check_positive(horizon, "horizon")
        check_non_negative(total_budget, "total_budget")
        self.guard_level = str(guard_level)
        self.telemetry = telemetry
        self.graph = graph
        self.model = model
        self.horizon = int(horizon)
        self.total_budget = float(total_budget)
        self.initial_queue = float(initial_queue)
        self.num_candidate_routes = int(num_candidate_routes)
        self.max_extra_hops = int(max_extra_hops)
        self.clock = clock if clock is not None else SlotClock(
            attempts_per_slot=graph.attempts_per_slot
        )
        self.faults = faults
        self._route_cache: Dict[Tuple, Tuple[int, float, RouteElements]] = {}

    # ------------------------------------------------------------------ #
    # Route economics (resolved centrally, once per endpoint pair)
    # ------------------------------------------------------------------ #
    _NO_ELEMENTS: RouteElements = (frozenset(), frozenset())

    def _resolve_route(self, endpoints: Tuple) -> Tuple[int, float, RouteElements]:
        """Per-request (qubit cost, success probability, route elements).

        Picks the candidate route with the highest single-channel success
        product (ties: fewest hops).  A disconnected pair yields
        ``(0, 0.0, empty)`` — its sessions are admitted but never served,
        and their requests drop at departure.
        """
        cached = self._route_cache.get(endpoints)
        if cached is not None:
            return cached
        routes = build_candidate_routes(
            self.graph,
            [endpoints],
            num_routes=self.num_candidate_routes,
            max_extra_hops=self.max_extra_hops,
        )[endpoints]
        best: Tuple[int, float, RouteElements] = (0, 0.0, self._NO_ELEMENTS)
        best_rank = None
        for route in routes:
            probability = 1.0
            for edge in route.edges:
                probability *= self.graph.slot_success(edge)
            rank = (-probability, route.hops)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = (
                    route.hops + 1,
                    probability,
                    (frozenset(route.nodes), frozenset(route.edges)),
                )
        self._route_cache[endpoints] = best
        return best

    # ------------------------------------------------------------------ #
    # The service loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        seed: SeedLike = None,
        on_slot: Optional[Callable[[SlotRecord], Optional[bool]]] = None,
    ) -> SimulationResult:
        """Execute the serving loop over the horizon.

        ``on_slot`` receives every merged :class:`SlotRecord`; returning
        ``False`` stops the run after that slot (the result then covers only
        the slots merged so far).
        """
        # The same run envelope as the slot-driven simulators: guard and
        # tracer fresh per run (None when off), plus the fault counters.
        envelope = RunEnvelope(self.guard_level, self.telemetry, self.faults)
        with envelope.active():
            return self._run_inner(envelope, seed, on_slot)

    def _run_inner(
        self,
        envelope: RunEnvelope,
        seed: SeedLike,
        on_slot: Optional[Callable[[SlotRecord], Optional[bool]]],
    ) -> SimulationResult:
        guard = envelope.guard
        tracer = envelope.tracer
        fault_stats = envelope.fault_stats
        model = self.model
        base_seed = seed if isinstance(seed, int) else derive_seed(None, "serving")
        arrivals = model.build_arrivals()
        arrivals.reset(self.graph, base_seed)
        admission = model.build_admission()
        admission.reset()
        queue = VirtualQueue.for_budget(
            self.total_budget, self.horizon, initial_length=self.initial_queue
        )
        shards = [_Shard(index=index) for index in range(model.shards)]

        counters: Dict[str, float] = {
            key: 0
            for key in (
                "sessions_arrived", "sessions_admitted", "sessions_rejected",
                "sessions_departed", "sessions_renewed",
                "requests_arrived", "requests_served", "requests_realized",
                "requests_dropped",
            )
        }
        cost_spent = 0.0
        sojourn_slots = 0
        served_by_session: Dict[int, int] = {}
        merged_backlog = 0
        active_sessions = 0
        records: List[SlotRecord] = []
        stopped = False

        # Shard advances run under a supervisor: a dead worker rebuilds the
        # pool and resubmits the window (shard state only mutates in the
        # worker's copy, so a resubmission is byte-identical), and the
        # progress deadline turns a hung worker into a retriable failure.
        supervisor: Optional[PoolSupervisor] = None
        workers = min(model.shard_workers, model.shards)
        if workers > 1:
            supervisor = PoolSupervisor(
                max_workers=workers, timeout_s=model.shard_timeout_s
            )
        try:
            for window_start in range(0, self.horizon, model.merge_every):
                slots = list(
                    range(window_start, min(window_start + model.merge_every, self.horizon))
                )
                joins: List[Dict[int, List[AdmittedJoin]]] = [
                    {} for _ in range(model.shards)
                ]
                # The slot → failed-elements map for this window, computed
                # centrally once so every shard sees the same outages.
                down: Optional[Dict[int, DownElements]] = None
                if self.faults is not None:
                    down = {}
                    for t in slots:
                        fault_state = envelope.fault_state(t)
                        if fault_state:
                            down[t] = (fault_state.down_nodes, fault_state.down_edges)
                # Admission runs centrally against the last merged state —
                # with a merge period of k the signals are up to k−1 slots
                # stale, like any periodically-synchronised control plane.
                with maybe_span(tracer, "serving.admission", slot=window_start):
                    for t in slots:
                        admission.on_slot(t)
                        for spec in arrivals.joins(t):
                            counters["sessions_arrived"] += 1
                            state = AdmissionState(
                                t=t,
                                backlog=queue.length,
                                pending_requests=merged_backlog,
                                active_sessions=active_sessions,
                                availability=(
                                    self.faults.availability_at(t)
                                    if self.faults is not None
                                    else 1.0
                                ),
                            )
                            if not admission.admit(spec, state):
                                counters["sessions_rejected"] += 1
                                continue
                            counters["sessions_admitted"] += 1
                            active_sessions += 1
                            served_by_session[spec.session_id] = 0
                            cost, prob, elements = self._resolve_route(spec.endpoints)
                            capacity = (
                                int(model.session_budget // cost) if cost > 0 else 0
                            )
                            shard = shard_for_session(spec.session_id, model.shards)
                            joins[shard].setdefault(t, []).append(
                                (spec, cost, prob, capacity, elements)
                            )

                with maybe_span(tracer, "serving.shards", slot=window_start):
                    if supervisor is not None:
                        outcomes = supervisor.run(
                            _advance_shard_for_pool,
                            [
                                (shard, slots, joins[i], down)
                                for i, shard in enumerate(shards)
                            ],
                        )
                        shards = [shard for shard, _ in outcomes]
                        reports = [entries for _, entries in outcomes]
                    else:
                        reports = [
                            shard.advance(slots, joins[i], down)
                            for i, shard in enumerate(shards)
                        ]

                if tracer is not None:
                    # The merge lag: how stale each merged slot's signals
                    # are relative to the window's central admission state.
                    lag_hist = tracer.metrics.histogram(
                        "serving.merge_lag_slots", bounds=(0, 1, 2, 4, 8, 16, 32)
                    )
                    for offset in range(len(slots)):
                        lag_hist.observe(offset)
                # Merge in canonical session-id order: identical aggregation
                # (including float summation order) for every shard layout.
                with maybe_span(tracer, "serving.merge", slot=window_start):
                    for offset, t in enumerate(slots):
                        if guard is not None:
                            guard.begin_slot(t)
                        entries = sorted(
                            (entry for report in reports for entry in report[offset]),
                            key=lambda entry: entry.session_id,
                        )
                        arrived = sum(entry.arrived for entry in entries)
                        served = sum(entry.served for entry in entries)
                        slot_cost = sum(entry.cost for entry in entries)
                        utility = 0.0
                        probabilities: List[float] = []
                        realized: List[bool] = []
                        for entry in entries:
                            if entry.served:
                                utility += entry.served * entry.prob
                                probabilities.extend([entry.prob] * entry.served)
                                realized.extend(entry.realized)
                                served_by_session[entry.session_id] += entry.served
                            sojourn_slots += entry.sojourn
                            counters["requests_dropped"] += entry.dropped
                            counters["sessions_departed"] += entry.departed
                            counters["sessions_renewed"] += entry.renewed
                            if fault_stats is not None:
                                fault_stats.requests_interrupted += entry.interrupted
                        counters["requests_arrived"] += arrived
                        counters["requests_served"] += served
                        counters["requests_realized"] += sum(realized)
                        cost_spent += slot_cost
                        active_sessions -= sum(entry.departed for entry in entries)
                        merged_backlog = sum(entry.backlog for entry in entries)
                        queue_length = queue.update(float(slot_cost))
                        if guard is not None:
                            guard.check_serving_slot(
                                t, entries, merged_backlog, queue_length
                            )
                        record = SlotRecord(
                            t=t,
                            num_requests=arrived,
                            num_served=served,
                            cost=slot_cost,
                            utility=utility,
                            success_probabilities=tuple(probabilities),
                            realized_successes=tuple(realized),
                            queue_length=queue_length,
                            slot_start_s=self.clock.slot_start(t),
                            slot_end_s=self.clock.slot_end(t),
                        )
                        records.append(record)
                        if envelope.emit(t, on_slot, record):
                            stopped = True
                            break
                if stopped:
                    break
        finally:
            if supervisor is not None:
                supervisor.shutdown()

        stats = dict(counters)
        stats["requests_backlog"] = merged_backlog
        stats["cost_spent"] = cost_spent
        stats["sojourn_slots"] = sojourn_slots
        stats["fairness_users"] = len(served_by_session)
        stats["fairness_served_sq"] = float(
            sum(count * count for count in served_by_session.values())
        )
        stats["sim_seconds"] = len(records) * self.clock.slot_duration
        stats["slots"] = len(records)
        if supervisor is not None and supervisor.recoveries:
            stats["worker_recoveries"] = supervisor.recoveries
        diagnostics: Dict[str, object] = {"serving": stats}

        def final_checks(guard) -> None:
            guard.check_serving_totals(counters)
            guard.check_queue_history(queue.history)

        envelope.finalize([diagnostics], final_checks)
        return SimulationResult(
            policy_name=SERVING_LINEUP_NAME,
            horizon=self.horizon,
            total_budget=self.total_budget,
            records=tuple(records),
            diagnostics=diagnostics,
        )


# --------------------------------------------------------------------------- #
# Stats helpers (operate on the summable diagnostics mapping)
# --------------------------------------------------------------------------- #
def merge_serving_stats(stats_mappings) -> Optional[Dict[str, float]]:
    """Sum serving counter mappings; ``None`` when none are present.

    Same merge semantics as the kernel/physical/event stats
    (:func:`repro.analysis.stats.merge_stat_mappings` without a cast):
    results without serving diagnostics contribute nothing.
    """
    from repro.analysis.stats import merge_stat_mappings

    return merge_stat_mappings(stats_mappings)


def jain_fairness(stats: Optional[Mapping[str, float]]) -> Optional[float]:
    """Jain's fairness index over per-session served counts, in (0, 1].

    Computed from the raw moments the scheduler records
    (``requests_served = Σ xᵢ``, ``fairness_served_sq = Σ xᵢ²``,
    ``fairness_users = n``): ``(Σ xᵢ)² / (n · Σ xᵢ²)``.  The moments are
    summable, so the index is exact across merged trials and study points.
    ``None`` without stats; ``1.0`` when nothing was served (trivially fair).
    """
    if not stats:
        return None
    users = float(stats.get("fairness_users", 0))
    squares = float(stats.get("fairness_served_sq", 0.0))
    served = float(stats.get("requests_served", 0))
    if users <= 0 or squares <= 0.0:
        return 1.0
    return (served * served) / (users * squares)


def serving_requests_per_second(stats: Optional[Mapping[str, float]]) -> Optional[float]:
    """Sustained served requests per simulated second; ``None`` without stats."""
    if not stats:
        return None
    seconds = float(stats.get("sim_seconds", 0.0))
    if seconds <= 0.0:
        return 0.0
    return float(stats.get("requests_served", 0)) / seconds


def mean_sojourn_slots(stats: Optional[Mapping[str, float]]) -> Optional[float]:
    """Mean request sojourn (arrival → service) in slots; ``None`` without stats."""
    if not stats:
        return None
    served = float(stats.get("requests_served", 0))
    if served <= 0:
        return 0.0
    return float(stats.get("sojourn_slots", 0)) / served
