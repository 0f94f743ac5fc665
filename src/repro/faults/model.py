"""Deterministic fault models: node/edge outages on a seeded schedule.

Quantum networks are failure-prone: fibre cuts, repeater maintenance and
control-plane outages all take elements out of service for stretches of
time.  This module models those outages as a *deterministic, precomputed
schedule* so that fault-injected runs keep the repository's byte-identity
discipline:

* every element draws its own RNG stream (``derive_seed(seed, kind,
  element)``), so the schedule does not depend on iteration order, worker
  layout or how many policies share it;
* the schedule is built once per (model, graph, seed, horizon) before the
  simulation starts, so the simulators' live RNG streams are never
  perturbed — a fault-free run draws exactly the historical random numbers.

Two outage sources combine:

* **transient outages** — alternating exponential up/down times with mean
  time between failures (MTBF) and mean time to repair (MTTR), per node
  and per edge;
* **scheduled outages** — scripted one-shot ``Outage`` entries (element,
  start slot, duration) for reproducible scenarios such as "cut the
  backbone edge at t=50 for 20 slots".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.network.graph import EdgeKey, QDNGraph
from repro.network.routes import Route
from repro.utils.rng import SeedLike, as_generator, derive_seed
from repro.utils.validation import check_non_negative

OUTAGE_KINDS = ("node", "edge")


def _element_label(element: object) -> str:
    """The canonical string form used to seed and script outages.

    Nodes use ``str(name)``; edges use ``"u--v"`` of the canonical
    (sorted) edge key, so ``("b", "a")`` and ``("a", "b")`` agree.
    """
    if isinstance(element, tuple) and len(element) == 2:
        return f"{element[0]}--{element[1]}"
    return str(element)


@dataclass(frozen=True)
class Outage:
    """A scripted one-shot outage of a single element.

    ``kind`` is ``"node"`` or ``"edge"``; ``element`` is the canonical
    label (see :func:`_element_label`): the node name's string form, or
    ``"u--v"`` for an edge.
    """

    kind: str
    element: str
    start: int
    duration: int

    def __post_init__(self) -> None:
        if self.kind not in OUTAGE_KINDS:
            raise ValueError(
                f"outage kind must be one of {OUTAGE_KINDS}, got {self.kind!r}"
            )
        if self.start < 0:
            raise ValueError(f"outage start must be non-negative, got {self.start}")
        if self.duration < 1:
            raise ValueError(f"outage duration must be positive, got {self.duration}")

    @classmethod
    def coerce(cls, value: object) -> "Outage":
        """Build an outage from an ``Outage``, a ``[kind, element, start,
        duration]`` sequence or the mapping a saved configuration holds."""
        if isinstance(value, cls):
            return value
        fields = ("kind", "element", "start", "duration")
        if isinstance(value, Mapping) and set(value) == set(fields):
            value = [value[key] for key in fields]
        if isinstance(value, (list, tuple)) and len(value) == 4:
            kind, element, start, duration = value
            return cls(
                kind=str(kind),
                element=_element_label(element),
                start=int(start),
                duration=int(duration),
            )
        raise ValueError(
            "an outage must be an Outage or a [kind, element, start, duration] "
            f"sequence, got {value!r}"
        )


@dataclass(frozen=True)
class FaultModel:
    """The fault layer of a configuration (``ExperimentConfig.faults``).

    All times are in slots.  ``node_mtbf``/``edge_mtbf`` are mean
    up-times; zero disables the transient process for that element class.
    ``mttr`` is the mean down-time of a transient outage.  ``outages`` are
    scripted one-shots.  ``aware`` selects the degradation mode: aware
    policies see the degraded topology (routes over failed elements are
    removed from the candidate sets), blind policies keep routing into the
    outage and lose the affected requests at realization time.
    """

    node_mtbf: float = 0.0
    edge_mtbf: float = 0.0
    mttr: float = 5.0
    outages: Tuple[Outage, ...] = ()
    aware: bool = True

    def __post_init__(self) -> None:
        check_non_negative(self.node_mtbf, "node_mtbf")
        check_non_negative(self.edge_mtbf, "edge_mtbf")
        if (self.node_mtbf or self.edge_mtbf) and self.mttr <= 0:
            raise ValueError(
                f"mttr must be positive when a transient MTBF is set, got {self.mttr}"
            )
        object.__setattr__(
            self, "outages", tuple(Outage.coerce(entry) for entry in self.outages or ())
        )

    @property
    def inert(self) -> bool:
        """Whether the model can never take any element down."""
        return not (self.node_mtbf > 0 or self.edge_mtbf > 0 or self.outages)


_EMPTY_NODES: frozenset = frozenset()
_EMPTY_EDGES: frozenset = frozenset()


@dataclass(frozen=True)
class FaultState:
    """The set of elements that are down in one slot."""

    down_nodes: frozenset = _EMPTY_NODES
    down_edges: frozenset = _EMPTY_EDGES

    def __bool__(self) -> bool:
        return bool(self.down_nodes or self.down_edges)

    @property
    def down_elements(self) -> int:
        """Number of elements that are down in this slot."""
        return len(self.down_nodes) + len(self.down_edges)

    def blocks_route(self, route: Route) -> bool:
        """Whether the route crosses any failed node or edge."""
        if self.down_nodes and not self.down_nodes.isdisjoint(route.node_set):
            return True
        return bool(self.down_edges) and not self.down_edges.isdisjoint(route.edges)


#: The shared "everything up" state (identity object, cheap to compare).
HEALTHY = FaultState()


def _transient_intervals(
    seed: SeedLike, mtbf: float, mttr: float, horizon: int
) -> List[Tuple[int, int]]:
    """Alternating exponential up/down intervals for one element.

    Returns ``(start, duration)`` pairs with ``start < horizon``; the
    element is down on slots ``[start, start + duration)``.  Durations are
    rounded to whole slots with a one-slot floor so every failure is
    observable.
    """
    rng = as_generator(seed)
    intervals: List[Tuple[int, int]] = []
    t = 0.0
    while True:
        t += float(rng.exponential(mtbf))
        start = int(math.floor(t))
        if start >= horizon:
            return intervals
        duration = max(1, int(round(float(rng.exponential(mttr)))))
        intervals.append((start, duration))
        t = float(start + duration)


class FaultSchedule:
    """The precomputed per-slot fault state of one run.

    Built once (from the model, the graph, a dedicated seed and the run
    horizon) before the simulation starts; the simulators then only *read*
    it, so schedules are byte-identical across serial/parallel execution
    and across worker layouts.
    """

    def __init__(
        self,
        horizon: int,
        num_nodes: int,
        num_edges: int,
        states: Mapping[int, FaultState],
        node_failures: int,
        edge_failures: int,
        repairs: int,
        aware: bool = True,
    ) -> None:
        self.horizon = int(horizon)
        self.num_nodes = int(num_nodes)
        self.num_edges = int(num_edges)
        self._states: Dict[int, FaultState] = dict(states)
        self.node_failures = int(node_failures)
        self.edge_failures = int(edge_failures)
        self.repairs = int(repairs)
        self.aware = bool(aware)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        model: FaultModel,
        graph: QDNGraph,
        seed: SeedLike,
        horizon: int,
    ) -> "FaultSchedule":
        """Precompute the fault state of every slot in ``[0, horizon)``."""
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        nodes = sorted(graph.nodes, key=repr)
        edges = sorted(graph.edges, key=repr)
        node_by_label = {_element_label(node): node for node in nodes}
        edge_by_label = {_element_label(key): key for key in edges}

        down_nodes: Dict[int, Set[object]] = {}
        down_edges: Dict[int, Set[EdgeKey]] = {}
        node_failures = edge_failures = repairs = 0

        def mark(
            slot_sets: Dict[int, Set], element: object, start: int, duration: int
        ) -> int:
            """Mark the interval's slots; returns 1 if it repairs in-horizon."""
            for t in range(start, min(start + duration, horizon)):
                slot_sets.setdefault(t, set()).add(element)
            return 1 if start + duration <= horizon else 0

        for node in nodes:
            if model.node_mtbf > 0:
                element_seed = derive_seed(seed, "node", _element_label(node))
                for start, duration in _transient_intervals(
                    element_seed, model.node_mtbf, model.mttr, horizon
                ):
                    node_failures += 1
                    repairs += mark(down_nodes, node, start, duration)
        for key in edges:
            if model.edge_mtbf > 0:
                element_seed = derive_seed(seed, "edge", _element_label(key))
                for start, duration in _transient_intervals(
                    element_seed, model.edge_mtbf, model.mttr, horizon
                ):
                    edge_failures += 1
                    repairs += mark(down_edges, key, start, duration)

        for outage in model.outages:
            if outage.start >= horizon:
                continue
            if outage.kind == "node":
                node = node_by_label.get(outage.element)
                if node is None:
                    raise ValueError(
                        f"scheduled outage names unknown node {outage.element!r}"
                    )
                node_failures += 1
                repairs += mark(down_nodes, node, outage.start, outage.duration)
            else:
                key = edge_by_label.get(outage.element)
                if key is None:
                    raise ValueError(
                        f"scheduled outage names unknown edge {outage.element!r}"
                    )
                edge_failures += 1
                repairs += mark(down_edges, key, outage.start, outage.duration)

        states: Dict[int, FaultState] = {}
        for t in set(down_nodes) | set(down_edges):
            states[t] = FaultState(
                down_nodes=frozenset(down_nodes.get(t, ())),
                down_edges=frozenset(down_edges.get(t, ())),
            )
        return cls(
            horizon=horizon,
            num_nodes=len(nodes),
            num_edges=len(edges),
            states=states,
            node_failures=node_failures,
            edge_failures=edge_failures,
            repairs=repairs,
            aware=model.aware,
        )

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    @property
    def num_elements(self) -> int:
        """Total number of elements (nodes + edges) the schedule covers."""
        return self.num_nodes + self.num_edges

    def state_at(self, t: int) -> FaultState:
        """The fault state of slot ``t`` (:data:`HEALTHY` when nothing is down)."""
        return self._states.get(int(t), HEALTHY)

    def availability_at(self, t: int) -> float:
        """Fraction of elements that are up in slot ``t``."""
        if self.num_elements == 0:
            return 1.0
        return 1.0 - self.state_at(t).down_elements / self.num_elements

    def degraded_slots(self) -> int:
        """Number of slots with at least one element down."""
        return sum(1 for state in self._states.values() if state)

    def down_element_slots(self) -> int:
        """Total element-slots of downtime (``Σ_t |down(t)|``)."""
        return sum(state.down_elements for state in self._states.values())

    def filter_routes(
        self, state: FaultState, candidate_routes: Mapping
    ) -> Mapping:
        """Candidate sets with every route crossing a failed element removed.

        Returns ``candidate_routes`` itself when the state is healthy so
        fault-free slots build the exact same context objects as before.
        """
        if not state:
            return candidate_routes
        return {
            request: tuple(
                route for route in routes if not state.blocks_route(route)
            )
            for request, routes in candidate_routes.items()
        }


@dataclass
class FaultStats:
    """Summable per-run fault counters (the ``diagnostics["faults"]`` payload).

    Every field is a plain sum so records merge across trials, policies and
    study points with the same discipline as the kernel/physical/event
    stats.  ``availability`` is *derived* (1 − down_element_slots /
    element_slots) and therefore computed at display time, not stored.
    """

    slots: int = 0
    element_slots: int = 0
    down_element_slots: int = 0
    degraded_slots: int = 0
    node_failures: int = 0
    edge_failures: int = 0
    repairs: int = 0
    requests_unservable: int = 0
    requests_interrupted: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form used in result diagnostics."""
        return {
            "slots": int(self.slots),
            "element_slots": int(self.element_slots),
            "down_element_slots": int(self.down_element_slots),
            "degraded_slots": int(self.degraded_slots),
            "node_failures": int(self.node_failures),
            "edge_failures": int(self.edge_failures),
            "repairs": int(self.repairs),
            "requests_unservable": int(self.requests_unservable),
            "requests_interrupted": int(self.requests_interrupted),
        }

    def observe_slot(self, schedule: FaultSchedule, state: FaultState) -> None:
        """Record one simulated slot against the schedule."""
        self.slots += 1
        self.element_slots += schedule.num_elements
        if state:
            self.degraded_slots += 1
            self.down_element_slots += state.down_elements

    def finalize(self, schedule: FaultSchedule) -> Dict[str, int]:
        """Fold in the schedule-level transition counts and return the dict."""
        self.node_failures += schedule.node_failures
        self.edge_failures += schedule.edge_failures
        self.repairs += schedule.repairs
        return self.to_dict()


def fault_availability(stats: Optional[Mapping[str, float]]) -> Optional[float]:
    """Derived availability of a (possibly merged) fault-stats mapping."""
    if not stats:
        return None
    element_slots = float(stats.get("element_slots", 0))
    if element_slots <= 0:
        return None
    return 1.0 - float(stats.get("down_element_slots", 0)) / element_slots
