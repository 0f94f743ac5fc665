"""Link-layer realisation of entanglement connections.

The routing layer reasons with the analytic probability
``P(r, N) = Π_e [1 − (1 − p_e)^{n_e}]``; this module *realises* those
probabilities with one Bernoulli draw per allocated edge, batched per slot,
and checks them by Monte Carlo (:meth:`LinkLayerSimulator.empirical_route_success`).
The event backend (:mod:`repro.simulation.eventsim`) times the same draw
in closed form: when each pair appears, is heralded and is swapped.  The
physical layer (:mod:`repro.simulation.physical`) decays the pairs over
those times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.network.graph import EdgeKey, QDNGraph
from repro.network.routes import Route
from repro.physics.entanglement import sample_successes
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class RouteRealization:
    """Outcome of realising one EC attempt along a route in one slot."""

    succeeded: bool
    edge_outcomes: Mapping[EdgeKey, bool]
    fidelity: float = 0.0

    @property
    def failed_edges(self) -> Tuple[EdgeKey, ...]:
        """Edges whose link-level entanglement failed this slot."""
        return tuple(key for key, success in self.edge_outcomes.items() if not success)


@dataclass
class LinkLayerSimulator:
    """Realises entanglement connections on top of a :class:`QDNGraph`.

    Each allocated edge succeeds with exactly the probability the routing
    layer optimises; a realised connection reports ``base_fidelity``.
    """

    graph: QDNGraph
    base_fidelity: float = 0.98

    def __post_init__(self) -> None:
        check_in_range(self.base_fidelity, 0.0, 1.0, "base_fidelity")

    def realize_edge(self, key: EdgeKey, channels: int, rng: np.random.Generator) -> bool:
        """Bernoulli draw of whether the edge's link succeeds this slot."""
        if channels <= 0:
            return False
        return bool(rng.random() < self.graph.link_success(key, channels))

    def realize_route(
        self,
        route: Route,
        allocation: Mapping[EdgeKey, int],
        seed: SeedLike = None,
    ) -> RouteRealization:
        """Realise one EC along ``route`` given the per-edge channel allocation."""
        rng = as_generator(seed)
        outcomes: Dict[EdgeKey, bool] = {}
        succeeded = True
        for key in route.edges:
            outcome = self.realize_edge(key, int(allocation.get(key, 0)), rng)
            outcomes[key] = outcome
            succeeded = succeeded and outcome
        return RouteRealization(
            succeeded=succeeded,
            edge_outcomes=outcomes,
            fidelity=self.base_fidelity if succeeded else 0.0,
        )

    def realize_routes(
        self,
        items: Sequence[Tuple[Route, Mapping[EdgeKey, int]]],
        seed: SeedLike = None,
    ) -> List[RouteRealization]:
        """Realise one EC per (route, allocation) pair — batched per slot.

        The per-edge success draws of *all* routes are taken in a single
        batched ``Generator.random(n)`` call per slot; NumPy fills the batch
        from the same bit stream as sequential scalar draws, so the outcomes
        are bit-identical to looping :meth:`realize_route` over ``items``
        with the same generator (edges with no allocated channel consume no
        randomness).
        """
        rng = as_generator(seed)
        flat_edges: List[Tuple[int, EdgeKey]] = []
        thresholds: List[float] = []
        for index, (route, allocation) in enumerate(items):
            for key in route.edges:
                channels = int(allocation.get(key, 0))
                if channels > 0:
                    flat_edges.append((index, key))
                    thresholds.append(self.graph.link_success(key, channels))
        draws = sample_successes(thresholds, rng)

        per_route_outcomes: List[Dict[EdgeKey, bool]] = [
            {key: False for key in route.edges} for route, _ in items
        ]
        for (index, key), success in zip(flat_edges, draws):
            per_route_outcomes[index][key] = bool(success)
        realizations: List[RouteRealization] = []
        for (route, _), outcomes in zip(items, per_route_outcomes):
            succeeded = all(outcomes.values()) if outcomes else True
            realizations.append(
                RouteRealization(
                    succeeded=succeeded,
                    edge_outcomes=outcomes,
                    fidelity=self.base_fidelity if succeeded else 0.0,
                )
            )
        return realizations

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def empirical_route_success(
        self,
        route: Route,
        allocation: Mapping[EdgeKey, int],
        trials: int,
        seed: SeedLike = None,
    ) -> float:
        """Monte-Carlo estimate of the route's EC success probability."""
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        rng = as_generator(seed)
        successes = 0
        for _ in range(trials):
            if self.realize_route(route, allocation, seed=rng).succeeded:
                successes += 1
        return successes / trials

    def analytic_route_success(
        self, route: Route, allocation: Mapping[EdgeKey, int]
    ) -> float:
        """The analytic ``P(r, N)`` the routing layer uses (paper Eq. 2)."""
        probability = 1.0
        for key in route.edges:
            probability *= self.graph.link_success(key, float(allocation.get(key, 0)))
        return probability
