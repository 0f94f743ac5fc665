"""Algorithm 3 — route selection.

For every served request a route must be chosen from its candidate set; the
quality of a joint choice is the P2 objective of the *allocated* routes
(Algorithm 2 is invoked for every evaluated combination).  Two selectors are
provided:

* :class:`ExhaustiveRouteSelector` — enumerates every combination; exact but
  exponential in the number of requests, so only suitable when ``|Φ_t|`` or
  the candidate sets are small (the paper notes these special cases are
  practically relevant).
* :class:`GibbsRouteSelector` — the paper's Gibbs-sampling selector: in each
  iteration one request's route is re-proposed and accepted with the
  logistic probability of Eq. (15) (with the corrected sign — see
  :mod:`repro.solvers.gibbs`).  Optionally, requests whose candidate routes
  never share a node are updated simultaneously (the paper's remark on
  parallel evolution).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from repro.core.allocation import AllocationOutcome
from repro.core.problem import SlotContext
from repro.network.routes import Route
from repro.solvers.gibbs import GibbsSampler, exhaustive_optimise
from repro.solvers.kernel import DEFAULT_DUAL_TOLERANCE, KernelCache, SlotKernel
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive
from repro.workload.requests import SDPair


@dataclass(frozen=True)
class RouteSelectionResult:
    """Joint outcome of route selection and qubit allocation for one slot."""

    selection: Mapping[SDPair, Route]
    outcome: AllocationOutcome
    objective: float
    evaluations: int

    @property
    def feasible(self) -> bool:
        """Whether the selected combination admits a feasible allocation."""
        return self.outcome.feasible


def empty_selection() -> RouteSelectionResult:
    """The result of a slot with no servable request: nothing costs nothing."""
    empty = AllocationOutcome(allocation={}, objective=0.0, feasible=True, cost=0)
    return RouteSelectionResult(selection={}, outcome=empty, objective=0.0, evaluations=0)


def bind_servable(
    cache: KernelCache,
    context: SlotContext,
    requests: Sequence[SDPair],
    utility_weight: float,
    cost_weight: float,
    budget_cap: Optional[float],
    dual_tolerance: float,
) -> Optional[SlotKernel]:
    """Bind the slot kernel over the requests that have candidate routes.

    ``None`` when no request has one.  Binding re-uses the cache's compiled
    structure for this graph (and its warm-start duals) across the
    drop-retry loop, consecutive slots and whole horizons.
    """
    requests = [r for r in requests if len(context.routes_for(r)) > 0]
    if not requests:
        return None
    return cache.bind(
        context,
        requests,
        [list(context.routes_for(r)) for r in requests],
        utility_weight=utility_weight,
        cost_weight=cost_weight,
        budget_cap=budget_cap,
        dual_tolerance=dual_tolerance,
    )


@dataclass
class ExhaustiveRouteSelector:
    """Brute-force route selection (exact, exponential in ``|Φ_t|``).

    ``cache`` is the :class:`~repro.solvers.kernel.KernelCache` every
    ``select`` call binds the slot kernel from (usually shared with the
    owning :class:`~repro.core.per_slot.PerSlotSolver`).
    """

    cache: KernelCache = field(default_factory=KernelCache)
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE

    def select(
        self,
        context: SlotContext,
        requests: Sequence[SDPair],
        utility_weight: float = 1.0,
        cost_weight: float = 0.0,
        budget_cap: Optional[float] = None,
        seed: SeedLike = None,
    ) -> RouteSelectionResult:
        """Evaluate every route combination and return the best one."""
        kernel = bind_servable(
            self.cache, context, requests,
            utility_weight, cost_weight, budget_cap, self.dual_tolerance,
        )
        if kernel is None:
            return empty_selection()
        sizes = kernel.sizes
        # Adaptive mode solves the whole enumeration in one lock-step batched
        # dual ascent and prunes combinations whose dual bound cannot beat the
        # best rounded objective; ties and enumeration order are preserved,
        # so the selected combination matches the sequential walk that
        # replay mode runs (``best_of`` returns None there).
        best = kernel.best_of(itertools.product(*[range(size) for size in sizes]))
        if best is not None:
            best_assignment, best_objective = best
        else:
            best_assignment, best_objective = exhaustive_optimise(
                sizes, kernel.objective
            )
        outcome = kernel.outcome_for(best_assignment)
        return RouteSelectionResult(
            selection=kernel.selection_for(best_assignment),
            outcome=outcome,
            objective=best_objective,
            evaluations=kernel.evaluations,
        )

    def combination_count(self, context: SlotContext, requests: Sequence[SDPair]) -> int:
        """Number of route combinations an exhaustive search would evaluate."""
        count = 1
        for request in requests:
            routes = context.routes_for(request)
            if routes:
                count *= len(routes)
        return count


@dataclass
class GibbsRouteSelector:
    """The paper's Gibbs-sampling route selector (Algorithm 3).

    ``iterations`` proposals are made; ``gamma`` controls exploration
    (paper default 500).  With ``parallel_updates=True`` requests whose
    candidate routes are node-disjoint are grouped and updated in the same
    iteration, as suggested by the paper's remark on simultaneous evolution.
    """

    cache: KernelCache = field(default_factory=KernelCache)
    gamma: float = 500.0
    iterations: int = 60
    parallel_updates: bool = False
    paper_sign: bool = False
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE

    def __post_init__(self) -> None:
        check_positive(self.gamma, "gamma")
        check_positive(self.iterations, "iterations")

    def _disjoint_groups(
        self, candidates: Sequence[Sequence[Route]]
    ) -> List[List[int]]:
        """Group request indices whose candidate routes share no node.

        A simple greedy colouring: requests are added to the first group in
        which they conflict with nobody; conflicting requests end up in
        different groups, and groups can safely evolve simultaneously.
        """
        node_sets = [
            set().union(*[route.node_set for route in routes]) if routes else set()
            for routes in candidates
        ]
        groups: List[List[int]] = []
        group_nodes: List[set] = []
        for index, nodes in enumerate(node_sets):
            placed = False
            for group, used in zip(groups, group_nodes):
                if not (nodes & used):
                    group.append(index)
                    used |= nodes
                    placed = True
                    break
            if not placed:
                groups.append([index])
                group_nodes.append(set(nodes))
        return groups

    def select(
        self,
        context: SlotContext,
        requests: Sequence[SDPair],
        utility_weight: float = 1.0,
        cost_weight: float = 0.0,
        budget_cap: Optional[float] = None,
        seed: SeedLike = None,
    ) -> RouteSelectionResult:
        """Run the Gibbs sampler and return the best combination visited."""
        rng = as_generator(seed)
        kernel = bind_servable(
            self.cache, context, requests,
            utility_weight, cost_weight, budget_cap, self.dual_tolerance,
        )
        if kernel is None:
            return empty_selection()
        sizes = kernel.sizes

        # Initial selection: the first (shortest) candidate route of each
        # request, which mirrors a sensible warm start and keeps runs
        # reproducible; the sampler then explores from there.
        initial = tuple(0 for _ in sizes)

        parallel_groups = None
        if self.parallel_updates:
            # Requests inside one group touch disjoint node sets, so they can
            # evolve their route choices simultaneously without interacting.
            parallel_groups = self._disjoint_groups(
                [context.routes_for(r) for r in requests if context.routes_for(r)]
            )

        sampler = GibbsSampler(
            gamma=self.gamma,
            iterations=self.iterations,
            paper_sign=self.paper_sign,
            parallel_groups=parallel_groups,
        )
        result = sampler.optimise(sizes, kernel.objective, seed=rng, initial=initial)

        best_assignment = result.best_assignment
        if math.isinf(result.best_objective) and result.best_objective < 0:
            # Every visited combination was infeasible; fall back to the
            # initial combination so callers get a well-formed (if
            # infeasible) outcome to inspect.
            best_assignment = initial
        outcome = kernel.outcome_for(best_assignment)
        # The best combination is already cached; derive its objective from
        # the outcome instead of re-running the kernel.
        best_objective = outcome.objective if outcome.feasible else float("-inf")
        return RouteSelectionResult(
            selection=kernel.selection_for(best_assignment),
            outcome=outcome,
            objective=best_objective,
            evaluations=kernel.evaluations,
        )
