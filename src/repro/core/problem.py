"""Per-slot decision context and decisions.

In each slot the policy observes the current EC requests ``Φ_t``, the
available resources (``Q_t^v``, ``W_t^e``) and the pre-computed candidate
routes ``R(ϕ)``, and must output a route for every request plus an integer
channel allocation on every edge of each chosen route.  :class:`SlotContext`
carries the observation, :class:`SlotDecision` the output; both are plain
data so they can be logged, replayed and inspected by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.network.graph import EdgeKey, QDNGraph, ResourceSnapshot
from repro.network.routes import Route
from repro.workload.requests import SDPair

#: Key of one allocation entry: (which request, which edge of its route).
AllocationKey = Tuple[SDPair, EdgeKey]


@dataclass(frozen=True)
class SlotContext:
    """Everything a policy may observe when deciding for slot ``t``.

    ``candidate_routes`` maps every request in ``requests`` to its candidate
    route set ``R(ϕ)``; requests whose candidate set is empty (disconnected
    endpoints) can never be served in this slot.
    """

    t: int
    graph: QDNGraph
    snapshot: ResourceSnapshot
    requests: Tuple[SDPair, ...]
    candidate_routes: Mapping[SDPair, Tuple[Route, ...]]

    def __post_init__(self) -> None:
        missing = [r for r in self.requests if r not in self.candidate_routes]
        if missing:
            raise ValueError(f"requests missing candidate routes: {missing}")
        # Both selectors, the drop-retry loop and the solver's victim
        # ranking call routes_for/servable_requests repeatedly every slot;
        # the context is frozen, so the answers are computed once.  (Plain
        # attributes — not fields — so dataclass equality/repr ignore them.)
        object.__setattr__(
            self,
            "_routes_cache",
            {r: tuple(routes) for r, routes in self.candidate_routes.items()},
        )
        object.__setattr__(
            self,
            "_servable",
            tuple(r for r in self.requests if len(self.candidate_routes[r]) > 0),
        )

    @property
    def num_requests(self) -> int:
        """Number of EC requests in this slot."""
        return len(self.requests)

    def routes_for(self, request: SDPair) -> Tuple[Route, ...]:
        """Candidate routes for ``request`` (cached — the context is frozen)."""
        return self._routes_cache[request]

    def servable_requests(self) -> Tuple[SDPair, ...]:
        """Requests that have at least one candidate route (cached)."""
        return self._servable

    def restricted_to(self, requests: Iterable[SDPair]) -> "SlotContext":
        """A context containing only the given subset of requests."""
        keep = tuple(requests)
        keep_set = set(keep)
        for request in keep:
            if request not in set(self.requests):
                raise ValueError(f"request {request} is not part of this context")
        return SlotContext(
            t=self.t,
            graph=self.graph,
            snapshot=self.snapshot,
            requests=keep,
            candidate_routes={
                request: tuple(routes)
                for request, routes in self.candidate_routes.items()
                if request in keep_set
            },
        )


@dataclass(frozen=True)
class SlotDecision:
    """The joint route-selection and qubit-allocation decision for one slot.

    ``selection`` holds the chosen route for every *served* request;
    ``allocation`` the integer number of channels for every (request, edge)
    of the chosen routes; ``unserved`` the requests that could not be served
    (no candidate route, or the slot was resource-infeasible even at one
    channel per edge).
    """

    selection: Mapping[SDPair, Route]
    allocation: Mapping[AllocationKey, int]
    unserved: Tuple[SDPair, ...] = ()

    def __post_init__(self) -> None:
        for request, route in self.selection.items():
            for key in route.edges:
                if (request, key) not in self.allocation:
                    raise ValueError(
                        f"allocation missing for request {request} edge {key}"
                    )
        for (request, key), value in self.allocation.items():
            if request not in self.selection:
                raise ValueError(f"allocation for unselected request {request}")
            if key not in self.selection[request].edges:
                raise ValueError(
                    f"allocation for edge {key} not on the chosen route of {request}"
                )
            if value < 1:
                raise ValueError(
                    f"allocation must be at least one channel, got {value} for {key}"
                )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def served_requests(self) -> Tuple[SDPair, ...]:
        """Requests that received a route and an allocation in this slot."""
        return tuple(self.selection.keys())

    @property
    def num_served(self) -> int:
        """Number of served requests."""
        return len(self.selection)

    def route_for(self, request: SDPair) -> Optional[Route]:
        """The chosen route for ``request`` (``None`` if unserved)."""
        return self.selection.get(request)

    def channels_for(self, request: SDPair, key: EdgeKey) -> int:
        """Channels allocated to ``request`` on edge ``key`` (0 if none)."""
        return int(self.allocation.get((request, key), 0))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def cost(self) -> int:
        """Total qubit/channel cost ``c_t = Σ_ϕ Σ_e n_e`` of this decision."""
        return int(sum(self.allocation.values()))

    def node_usage(self) -> Dict[object, int]:
        """Qubits consumed per node (both endpoints of every allocated edge)."""
        usage: Dict[object, int] = {}
        for (request, key), value in self.allocation.items():
            for endpoint in key:
                usage[endpoint] = usage.get(endpoint, 0) + int(value)
        return usage

    def edge_usage(self) -> Dict[EdgeKey, int]:
        """Channels consumed per physical edge (summed over requests)."""
        usage: Dict[EdgeKey, int] = {}
        for (request, key), value in self.allocation.items():
            usage[key] = usage.get(key, 0) + int(value)
        return usage

    def respects_snapshot(self, snapshot: ResourceSnapshot) -> bool:
        """Whether the decision satisfies the slot's capacity constraints."""
        for node, used in self.node_usage().items():
            if used > snapshot.available_qubits(node):
                return False
        for key, used in self.edge_usage().items():
            if used > snapshot.available_channels(key):
                return False
        return True

    def success_probability(self, graph: QDNGraph, request: SDPair) -> float:
        """EC success probability of ``request`` under this decision (0 if unserved)."""
        route = self.selection.get(request)
        if route is None:
            return 0.0
        probability = 1.0
        for key in route.edges:
            probability *= graph.link_success(key, self.channels_for(request, key))
        return probability

    def success_probabilities(self, graph: QDNGraph) -> Dict[SDPair, float]:
        """EC success probability for every served request."""
        return {
            request: self.success_probability(graph, request)
            for request in self.selection
        }

    def utility(
        self,
        graph: QDNGraph,
        unserved_floor: Optional[float] = None,
        probabilities: Optional[Iterable[float]] = None,
    ) -> float:
        """The slot utility ``u(r_t, N_t) = Σ_ϕ log P(r_t(ϕ), N_t)``.

        Served requests contribute ``log`` of their success probability.
        Unserved requests contribute ``log(unserved_floor)`` when a floor is
        given, and are skipped otherwise (the paper's formulation implicitly
        assumes every request is served).  ``probabilities`` passes the
        served requests' success probabilities, in selection order, when
        the caller has them already.
        """
        if probabilities is None:
            probabilities = (
                self.success_probability(graph, request) for request in self.selection
            )
        total = 0.0
        for probability in probabilities:
            total += math.log(probability) if probability > 0 else float("-inf")
        if unserved_floor is not None and self.unserved:
            if unserved_floor <= 0:
                raise ValueError("unserved_floor must be positive")
            total += len(self.unserved) * math.log(unserved_floor)
        return total

    @classmethod
    def empty(cls, unserved: Iterable[SDPair] = ()) -> "SlotDecision":
        """A decision that serves nothing (used when a slot is infeasible)."""
        return cls(selection={}, allocation={}, unserved=tuple(unserved))
