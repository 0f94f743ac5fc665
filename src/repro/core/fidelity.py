"""The fidelity-constrained extension of the per-slot problem.

The paper treats fidelity as a secondary, per-slot constraint: "we can
easily integrate a constraint into P1 which calculates the fidelity of the
chosen route and ensures it remains [above] the fidelity target in each time
slot … analogous to the capacity constraints" (Sec. III-C).  Because the
end-to-end fidelity of a route depends only on the route (its hop count and
per-link fidelities), not on how many channels are allocated, the constraint
can be enforced exactly by *filtering the candidate route sets*: any route
whose achievable fidelity falls below the target is removed before route
selection.  :class:`FidelityAwarePolicy` wraps any base policy with that
filter, so OSCAR, MF and MA all gain the constraint without modification —
which is precisely the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.policy import RoutingPolicy
from repro.core.problem import SlotContext, SlotDecision
from repro.network.graph import EdgeKey, QDNGraph
from repro.network.routes import Route
from repro.physics.fidelity import fidelity_of_chain
from repro.physics.purification import recurrence_purification, rounds_to_reach
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class RouteFidelityModel:
    """Computes the end-to-end fidelity of a candidate route.

    ``link_fidelity`` is the fidelity of a freshly generated link; per-edge
    overrides can be supplied for heterogeneous hardware.  End-to-end
    fidelity is the iterated Werner-swap composition of
    :func:`repro.physics.fidelity.fidelity_after_swap` (via
    :func:`repro.physics.fidelity.fidelity_of_chain`, which is defined as
    exactly that fold) — the same single source of truth the physical
    delivery engines in :mod:`repro.simulation.physical` compose fidelities
    with, so the analytic route model and the simulated physical layer can
    never drift apart.
    """

    link_fidelity: float = 0.98
    per_edge_fidelity: Mapping[EdgeKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_in_range(self.link_fidelity, 0.0, 1.0, "link_fidelity")
        for key, value in self.per_edge_fidelity.items():
            check_in_range(value, 0.0, 1.0, f"per_edge_fidelity[{key}]")
        # Route fidelity depends only on the route's edge tuple and this
        # (immutable) model, so it is memoised; the cache is not a dataclass
        # field, which keeps equality and serialisation untouched.
        object.__setattr__(self, "_route_cache", {})

    def edge_fidelity(self, key: EdgeKey) -> float:
        """Fidelity of one link on edge ``key``."""
        return float(self.per_edge_fidelity.get(key, self.link_fidelity))

    def route_fidelity(self, route: Route) -> float:
        """End-to-end fidelity of ``route`` after swapping all its links (memoised)."""
        cache: Dict[Tuple[EdgeKey, ...], float] = self._route_cache  # type: ignore[attr-defined]
        key = tuple(route.edges)
        fidelity = cache.get(key)
        if fidelity is None:
            fidelity = fidelity_of_chain(self.edge_fidelity(edge) for edge in key)
            cache[key] = fidelity
        return fidelity

    def filter_candidates(
        self,
        candidates: Mapping[object, Tuple[Route, ...]],
        target: float,
    ) -> Dict[object, Tuple[Route, ...]]:
        """Remove every candidate route whose end-to-end fidelity misses ``target``."""
        check_in_range(target, 0.0, 1.0, "target")
        filtered: Dict[object, Tuple[Route, ...]] = {}
        for key, routes in candidates.items():
            filtered[key] = tuple(
                route for route in routes if self.route_fidelity(route) >= target
            )
        return filtered

    def with_purification(
        self, link_target: float, max_rounds: int = 4
    ) -> "RouteFidelityModel":
        """A model whose links are purified up to ``link_target`` before swapping.

        Each link's fidelity is boosted by BBPSSW recurrence purification
        (at the cost of extra raw pairs, which the routing layer pays for
        through its channel allocation); links that cannot reach the target
        within ``max_rounds`` keep the best fidelity they can achieve.  The
        uniform ``link_fidelity`` and every per-edge override are purified
        independently.
        """
        check_in_range(link_target, 0.0, 1.0, "link_target")

        def boost(fidelity: float) -> float:
            rounds = rounds_to_reach(fidelity, link_target, max_rounds=max_rounds)
            if rounds is None:
                rounds = max_rounds if fidelity > 0.5 else 0
            return recurrence_purification(fidelity, rounds).fidelity

        return RouteFidelityModel(
            link_fidelity=boost(self.link_fidelity),
            per_edge_fidelity={
                key: boost(value) for key, value in self.per_edge_fidelity.items()
            },
        )


@dataclass
class FidelityAwarePolicy(RoutingPolicy):
    """Wraps a base policy and enforces a per-slot fidelity target.

    The wrapper filters the candidate route sets of every slot context so
    that the base policy can only choose routes meeting the target; requests
    left without any admissible route become unservable in that slot (the
    base policy reports them as unserved).
    """

    base: RoutingPolicy
    fidelity_model: RouteFidelityModel = field(default_factory=RouteFidelityModel)
    fidelity_target: float = 0.8

    def __post_init__(self) -> None:
        check_in_range(self.fidelity_target, 0.0, 1.0, "fidelity_target")
        self.name = f"{self.base.name}+F>={self.fidelity_target:g}"

    def reset(self, graph: QDNGraph, horizon: int) -> None:
        self.base.reset(graph, horizon)

    def decide(self, context: SlotContext, seed: SeedLike = None) -> SlotDecision:
        filtered = self.fidelity_model.filter_candidates(
            {request: tuple(routes) for request, routes in context.candidate_routes.items()},
            self.fidelity_target,
        )
        filtered_context = SlotContext(
            t=context.t,
            graph=context.graph,
            snapshot=context.snapshot,
            requests=context.requests,
            candidate_routes=filtered,
        )
        return self.base.decide(filtered_context, seed=seed)

    def diagnostics(self) -> dict:
        return self.base.diagnostics()

    def queue_length(self) -> Optional[float]:
        return self.base.queue_length()
