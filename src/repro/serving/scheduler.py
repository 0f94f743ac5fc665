"""The session scheduler: the serving layer's long-lived service loop.

The active sessions are the rows of one :class:`SessionTable`, numpy
columns in session-id order, advanced one slot at a time with array
operations.  Admission runs once per *merge window* of ``merge_every``
slots against the state at the window start, so its signals are up to
``merge_every − 1`` slots stale, like any periodically synchronised
control plane; when a policy that reads that state binds, the window
changes who gets in.

Each session keeps its own generator, seeded from its
:class:`~repro.serving.arrivals.SessionSpec`, and draws in a fixed order
each slot: the request count (a Poisson draw, when its rate is positive),
one uniform per served request, and one renewal uniform at expiry.  Its
route, and with it the per-request cost and success probability, is
resolved centrally at admission.  Slot totals add the rows in session-id
order, floats included.

Per-request service model: a served request consumes the session route's
``hops + 1`` qubits (one per node along the path) and succeeds with the
product of its edges' single-channel slot success probabilities — the
analytic link-layer model, deliberately cheap so a run sustains ~10⁵
simulated requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.virtual_queue import VirtualQueue
from repro.faults.model import FaultSchedule
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
from repro.simulation.results import SimulationResult, SlotColumnsBuilder, SlotRecord
from repro.telemetry.tracer import TelemetryModel, maybe_span
from repro.utils.rng import SeedLike, as_generator, derive_seed
from repro.utils.validation import check_non_negative, check_positive

#: The line-up key every serving run's result is stored under.
SERVING_LINEUP_NAME = "serving"


@dataclass(frozen=True)
class ServingModel:
    """The serving layer of a configuration (``ExperimentConfig.serving``).

    ``arrival_kind`` selects ``"poisson"`` joins at ``arrival_rate``
    sessions/slot or ``"trace"`` replaying ``arrival_trace`` per-slot join
    counts; each session issues ``session_rate`` requests/slot for a
    geometric lifetime of mean ``session_lifetime`` slots, renewing with
    ``renew_probability``.  Joins are gated by the ``admission`` policy
    (see :mod:`repro.serving.admission`), run once per window of
    ``merge_every`` slots against the state at the window start.
    """

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
    merge_every: int = 1
    min_availability: float = 0.9

    def __post_init__(self) -> None:
        if self.arrival_trace is not None:
            object.__setattr__(self, "arrival_trace", tuple(self.arrival_trace))
        check_non_negative(self.arrival_rate, "arrival_rate")
        check_non_negative(self.session_rate, "session_rate")
        check_positive(self.session_lifetime, "session_lifetime")
        check_non_negative(self.session_budget, "session_budget")
        check_positive(self.merge_every, "merge_every")
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


#: The elements a session's route occupies: (nodes, edge keys).  A slot's
#: failed elements cut the route when they intersect either set.
RouteElements = Tuple[FrozenSet, FrozenSet]

#: One admitted join: the spec plus its centrally resolved route economics
#: (per-request qubit cost, per-request success probability, requests
#: servable per slot under the session budget) and its route id.
AdmittedJoin = Tuple[SessionSpec, int, float, int, int]


class SlotOutcome(NamedTuple):
    """One slot of the whole table, summed over the sessions.

    ``success_probabilities`` and ``realized`` hold one entry per served
    request, in session-id order.
    """

    arrived: int
    served: int
    cost: int
    utility: float
    success_probabilities: np.ndarray
    realized: np.ndarray
    sojourn: int
    dropped: int
    departed: int
    renewed: int
    interrupted: int
    backlog: int


#: The per-session columns of a :class:`SessionTable` and their dtypes.
_COLUMNS = {
    "ids": np.int64, "rate": float, "capacity": np.int64, "cost": np.int64,
    "prob": float, "route": np.int64, "expires": np.int64, "lifetime": np.int64,
    "renew": float, "backlog": np.int64, "served_total": np.int64,
    "rngs": object,
}

#: A slot without service: no probabilities, no realisations.
_NO_PROBABILITIES = np.empty(0, dtype=float)
_NO_REALIZATIONS = np.empty(0, dtype=bool)


class SessionTable:
    """The active sessions as numpy columns, one row each in session-id order.

    Columns: ``ids``; ``rate``, the mean requests per slot; ``capacity``,
    the requests servable per slot under the session budget; ``cost`` and
    ``prob``, the per-request qubits and success probability; ``route``,
    the route id; ``expires``, the slot the current lifetime ends;
    ``lifetime``; ``renew``, the renewal probability; ``backlog``, the
    queued requests; ``served_total``.  An object column holds each
    session's generator (``rngs``).

    ``queue`` holds the FIFO backlog as arrival batches, one column each
    with the rows (session id, arrival slot, count), sorted by session and
    then arrival slot.

    After a :meth:`step`, ``served`` holds each row's service in that slot
    and ``departed`` marks the rows that left; those rows stay (with an
    empty backlog) until the next step, so the slot's columns can be read.
    """

    def __init__(self):
        self._set_rows(self._rows(()))
        self.queue = np.zeros((3, 0), dtype=np.int64)
        self.served = np.zeros(0, dtype=np.int64)
        self.departed = np.zeros(0, dtype=bool)
        #: Σ served² over the sessions already dropped from the table.
        self.retired_served_sq = 0

    @staticmethod
    def _rows(joins: Sequence[AdmittedJoin]) -> Dict[str, np.ndarray]:
        """The columns of freshly admitted sessions."""
        rows = [
            (spec.session_id, spec.request_rate, capacity, cost, prob, route,
             spec.joined_slot + spec.lifetime, spec.lifetime, spec.renew_probability,
             0, 0, as_generator(spec.seed))
            for spec, cost, prob, capacity, route in joins
        ]
        columns = zip(*rows) if rows else [()] * len(_COLUMNS)
        return {
            name: np.array(values, dtype=dtype)
            for (name, dtype), values in zip(_COLUMNS.items(), columns)
        }

    def _set_rows(self, rows: Mapping[str, np.ndarray]) -> None:
        for name in _COLUMNS:
            setattr(self, name, rows[name])

    def served_sq(self) -> int:
        """Σ served² over every session the table has held."""
        totals = self.served_total
        return self.retired_served_sq + int(np.dot(totals, totals))

    def queued(self) -> np.ndarray:
        """Requests in each row's queued batches (equal to ``backlog``).

        A batch whose session id has no row counts nowhere.
        """
        ids, _, counts = self.queue
        rows = np.searchsorted(self.ids, ids)
        known = rows < len(self.ids)
        known[known] = self.ids[rows[known]] == ids[known]
        totals = np.bincount(rows[known], weights=counts[known], minlength=len(self.ids))
        return totals.astype(np.int64)

    def step(
        self,
        t: int,
        joins: Sequence[AdmittedJoin] = (),
        cut: Optional[np.ndarray] = None,
    ) -> SlotOutcome:
        """Advance every session over slot ``t``.

        First drops the rows that departed in the previous step, then
        appends ``joins``, the sessions admitted at ``t`` (their ids exceed
        every active one; they request from the slot they join).  ``cut``
        holds, per route id, whether the slot's failed elements cut that
        route.  A cut session serves nothing: its would-be service counts
        as interrupted and its requests stay queued until repair.
        """
        self._drop_departed()
        if joins:
            new = self._rows(joins)
            self._set_rows(
                {name: np.concatenate((getattr(self, name), new[name])) for name in _COLUMNS}
            )
        rngs = self.rngs
        # 1. Request arrivals: one Poisson draw per session with a positive rate.
        arrived = np.array(
            [
                rng.poisson(rate) if rate > 0 else 0
                for rng, rate in zip(rngs.tolist(), self.rate.tolist())
            ],
            dtype=np.int64,
        )
        queued = self.backlog
        served = np.minimum(queued + arrived, self.capacity)
        interrupted = 0
        if cut is not None:
            blocked = cut[self.route]
            interrupted = int(served[blocked].sum())
            served[blocked] = 0
        # FIFO: the queued requests go first, then this slot's arrivals
        # (sojourn 0); the arrivals left over join the queue.
        from_queue = np.minimum(queued, served)
        sojourn = self._dequeue(t, queued, from_queue) if self.queue.size else 0
        left = arrived - (served - from_queue)
        if left.any():
            self._enqueue(t, left)
        backlog = queued - from_queue + left
        # 2. Realisations: one uniform per served request.
        rows = served.nonzero()[0]
        counts = served[rows]
        utility = 0.0
        probabilities = _NO_PROBABILITIES
        realized = _NO_REALIZATIONS
        if rows.size:
            draws = np.concatenate(
                [rng.random(k) for rng, k in zip(rngs[rows].tolist(), counts.tolist())]
            )
            prob = self.prob[rows]
            probabilities = prob.repeat(counts)
            realized = draws < probabilities
            # Sequential, in session-id order (np.sum would add pairwise).
            utility = float((counts * prob).cumsum()[-1])
        # 3. Expiry: a session whose lifetime ends renews with one draw or departs.
        departed = self.expires <= t + 1
        renewed = dropped = 0
        if departed.any():
            renewing = (departed & (self.renew > 0.0)).nonzero()[0]
            uniforms = np.array([rng.random() for rng in rngs[renewing].tolist()])
            renewing = renewing[uniforms < self.renew[renewing]]
            self.expires[renewing] += self.lifetime[renewing]
            departed[renewing] = False
            renewed = len(renewing)
            dropped = int(backlog[departed].sum())
            if dropped:
                backlog[departed] = 0
                self.queue = self.queue[:, ~departed[self.ids.searchsorted(self.queue[0])]]
        self.backlog = backlog
        self.served = served
        self.served_total += served
        self.departed = departed
        return SlotOutcome(
            arrived=int(arrived.sum()),
            served=int(counts.sum()),
            cost=int(np.dot(served, self.cost)),
            utility=utility,
            success_probabilities=probabilities,
            realized=realized,
            sojourn=sojourn,
            dropped=dropped,
            departed=int(departed.sum()),
            renewed=renewed,
            interrupted=interrupted,
            backlog=int(backlog.sum()),
        )

    def _drop_departed(self) -> None:
        departed = self.departed
        if departed.any():
            gone = self.served_total[departed]
            self.retired_served_sq += int(np.dot(gone, gone))
            keep = ~departed
            self._set_rows({name: getattr(self, name)[keep] for name in _COLUMNS})

    def _enqueue(self, t: int, left: np.ndarray) -> None:
        """Queue each row's ``left`` arrivals of slot ``t`` behind its older ones."""
        rows = left.nonzero()[0]
        batches = np.empty((3, len(rows)), dtype=np.int64)
        batches[0], batches[1], batches[2] = self.ids[rows], t, left[rows]
        queue = np.concatenate((self.queue, batches), axis=1)
        self.queue = queue[:, queue[0].argsort(kind="stable")]

    def _dequeue(self, t: int, queued: np.ndarray, take: np.ndarray) -> int:
        """Serve each row's ``take`` oldest queued requests; return their sojourn.

        ``queued`` is each row's queued total, so its exclusive running sum
        is where the row's batches start in the queue.
        """
        ids, slots, counts = self.queue
        rows = self.ids.searchsorted(ids)
        ahead = (counts.cumsum() - counts) - (queued.cumsum() - queued)[rows]
        taken = np.minimum(np.maximum(take[rows] - ahead, 0), counts)
        sojourn = int(np.dot(taken, t - slots))
        counts -= taken
        self.queue = self.queue[:, counts > 0]
        return sojourn


class ServingSimulator:
    """Runs one open-system serving trial (see module docstring).

    Produces a standard :class:`~repro.simulation.results.SimulationResult`
    under the line-up name ``"serving"`` — per-slot records carry the
    arrivals, service counts, costs, per-request success probabilities and
    realisations, the Lyapunov queue length and the slot-clock timestamps —
    plus a ``diagnostics["serving"]`` mapping of summable counters
    (``RunRecord.stats("serving")`` sums them across trials).
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
        #: Route elements → route id, in the order routes were first used.
        self._route_ids: Dict[RouteElements, int] = {}

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

    def _cut_routes(self, state) -> np.ndarray:
        """Per route id: whether fault ``state``'s failed elements cut it."""
        nodes, edges = state.down_nodes, state.down_edges
        return np.array(
            [bool(n & nodes) or bool(e & edges) for n, e in self._route_ids], dtype=bool
        )

    # ------------------------------------------------------------------ #
    # The service loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        seed: SeedLike = None,
        on_slot: Optional[Callable[[SlotRecord], Optional[bool]]] = None,
    ) -> SimulationResult:
        """Execute the serving loop over the horizon.

        ``on_slot`` receives every :class:`SlotRecord`; returning ``False``
        stops the run after that slot (the result then covers only the
        slots advanced so far).
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
        table = SessionTable()

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
        merged_backlog = 0
        active_sessions = 0
        columns = SlotColumnsBuilder()
        stopped = False
        for window_start in range(0, self.horizon, model.merge_every):
            slots = range(window_start, min(window_start + model.merge_every, self.horizon))
            # The window's fault states, observed once each before admission.
            down = {}
            if self.faults is not None:
                for t in slots:
                    fault_state = envelope.fault_state(t)
                    if fault_state:
                        down[t] = fault_state
            # Admission for the whole window runs against the state at the
            # window start; the table then advances the window's slots.
            joins: Dict[int, List[AdmittedJoin]] = {}
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
                        cost, prob, elements = self._resolve_route(spec.endpoints)
                        route = self._route_ids.setdefault(elements, len(self._route_ids))
                        capacity = int(model.session_budget // cost) if cost > 0 else 0
                        joins.setdefault(t, []).append((spec, cost, prob, capacity, route))

            if tracer is not None:
                # The merge lag: how stale each slot's admission signals are
                # relative to the window's central admission state.
                lag_hist = tracer.metrics.histogram(
                    "serving.merge_lag_slots", bounds=(0, 1, 2, 4, 8, 16, 32)
                )
                for offset in range(len(slots)):
                    lag_hist.observe(offset)
            for t in slots:
                if guard is not None:
                    guard.begin_slot(t)
                with maybe_span(tracer, "serving.step", slot=t):
                    cut = self._cut_routes(down[t]) if t in down else None
                    outcome = table.step(t, joins.get(t, ()), cut)
                counters["requests_arrived"] += outcome.arrived
                counters["requests_served"] += outcome.served
                counters["requests_realized"] += int(np.count_nonzero(outcome.realized))
                counters["requests_dropped"] += outcome.dropped
                counters["sessions_departed"] += outcome.departed
                counters["sessions_renewed"] += outcome.renewed
                if fault_stats is not None:
                    fault_stats.requests_interrupted += outcome.interrupted
                sojourn_slots += outcome.sojourn
                cost_spent += outcome.cost
                active_sessions -= outcome.departed
                merged_backlog = outcome.backlog
                queue_length = queue.update(float(outcome.cost))
                if guard is not None:
                    guard.check_serving_slot(
                        t, table, len(outcome.realized), merged_backlog, queue_length
                    )
                columns.append(
                    t=t,
                    num_requests=outcome.arrived,
                    num_served=outcome.served,
                    cost=outcome.cost,
                    utility=outcome.utility,
                    success_probabilities=outcome.success_probabilities,
                    realized_successes=outcome.realized,
                    queue_length=queue_length,
                    slot_start_s=self.clock.slot_start(t),
                    slot_end_s=self.clock.slot_end(t),
                )
                # The slot becomes a record only for a caller that reads it.
                record = None if on_slot is None else columns.last()
                if envelope.emit(t, on_slot, record):
                    stopped = True
                    break
            if stopped:
                break

        stats = dict(counters)
        stats["requests_backlog"] = merged_backlog
        stats["cost_spent"] = cost_spent
        stats["sojourn_slots"] = sojourn_slots
        # Every admitted session counts, also one the run stopped before it joined.
        stats["fairness_users"] = counters["sessions_admitted"]
        stats["fairness_served_sq"] = float(table.served_sq())
        stats["sim_seconds"] = len(columns) * self.clock.slot_duration
        stats["slots"] = len(columns)
        diagnostics: Dict[str, object] = {"serving": stats}

        def final_checks(guard) -> None:
            guard.check_serving_totals(counters)
            guard.check_queue_history(queue.history)

        envelope.finalize([diagnostics], final_checks)
        return SimulationResult(
            policy_name=SERVING_LINEUP_NAME,
            horizon=self.horizon,
            total_budget=self.total_budget,
            columns=columns.build(),
            diagnostics=diagnostics,
        )


# --------------------------------------------------------------------------- #
# Stats helpers (operate on the summable diagnostics mapping)
# --------------------------------------------------------------------------- #
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
