"""The per-slot problem P2 and its solver.

P2 asks, for the current slot only: choose a route for every EC request and
an integer channel allocation on every edge of the chosen routes so that

    V · Σ_ϕ log P(r(ϕ), N(r(ϕ)))  −  q_t · Σ_ϕ Σ_e n_e

is maximised subject to the slot's node/edge capacity constraints (and,
for the myopic baselines, a per-slot budget cap).  The solver combines the
route selectors of :mod:`repro.core.route_selection` with the allocator of
:mod:`repro.core.allocation`, picking exhaustive search when the combination
space is small and Gibbs sampling otherwise, exactly as the paper suggests.

When even one channel per edge does not fit (a situation the paper's
Assumption 1 rules out but which can arise under heavy exogenous resource
occupancy), the solver degrades gracefully: requests are dropped, longest
candidate route first, until the remaining set becomes feasible.  Dropped
requests are reported as ``unserved`` so the metrics layer can account for
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.problem import SlotContext, SlotDecision
from repro.core.route_selection import (
    ExhaustiveRouteSelector,
    GibbsRouteSelector,
    RouteSelectionResult,
    bind_servable,
    empty_selection,
)
from repro.solvers.kernel import DEFAULT_DUAL_TOLERANCE, KernelCache
from repro.utils.rng import SeedLike, as_generator
from repro.workload.requests import SDPair


@dataclass(frozen=True)
class PerSlotSolution:
    """Outcome of solving P2 for one slot.

    ``selector`` names the selector that actually ran (``"exhaustive"``,
    ``"gibbs"`` or ``"greedy"``); ``used_exhaustive`` is true when the route-combination
    space was searched *exhaustively* — either because the exhaustive
    selector ran, or because the space contained at most one combination, in
    which case the Gibbs sampler trivially visits all of it.  Use
    ``selector`` when you need to know which code path executed and
    ``used_exhaustive`` when you need to know whether the result is exact.
    """

    decision: SlotDecision
    objective: float
    evaluations: int
    used_exhaustive: bool
    dropped_requests: Tuple[SDPair, ...] = ()
    selector: str = "exhaustive"

    @property
    def cost(self) -> int:
        """Total qubit/channel cost of the decision."""
        return self.decision.cost()


@dataclass
class PerSlotSolver:
    """Solves the per-slot problem P2 (route selection + qubit allocation).

    ``selector_mode`` is one of ``"auto"`` (default: exhaustive when the
    number of route combinations is at most ``exhaustive_limit``, Gibbs
    otherwise), ``"exhaustive"`` or ``"gibbs"``.

    ``solve_deadline`` (0 = unlimited) is the degradation ladder's per-slot
    solve budget, expressed as a *deterministic* number of combination
    evaluations (a wall-clock deadline would make results depend on machine
    load, which the repository's byte-identity discipline forbids).  When a
    budget is set the selector ladder degrades gracefully: exhaustive search
    runs only while the combination space fits the budget, the Gibbs sampler
    runs while its nominal cost (``gibbs_iterations + 1`` evaluations) fits,
    and beyond that a one-evaluation greedy selection (first/shortest
    candidate route of every request) keeps the slot served.  Fallbacks are
    counted and surfaced through :meth:`kernel_stats`.

    Both selectors bind the slot kernel from one
    :class:`~repro.solvers.kernel.KernelCache`, which re-uses one compiled
    structure per topology across the drop-retry loop, consecutive slots
    and whole horizons, carrying warm-start dual multipliers slot-to-slot.
    ``dual_tolerance`` selects the kernel's adaptive (``> 0``) or replay
    (``0``) mode.
    """

    selector_mode: str = "auto"
    exhaustive_limit: int = 64
    gamma: float = 500.0
    gibbs_iterations: int = 60
    parallel_updates: bool = False
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE
    solve_deadline: int = 0
    _exhaustive: ExhaustiveRouteSelector = field(init=False, repr=False)
    _gibbs: Optional[GibbsRouteSelector] = field(init=False, repr=False)
    _cache: KernelCache = field(init=False, repr=False)
    _exhaustive_slots: int = field(init=False, repr=False, default=0)
    _gibbs_slots: int = field(init=False, repr=False, default=0)
    _greedy_slots: int = field(init=False, repr=False, default=0)
    _deadline_gibbs_fallbacks: int = field(init=False, repr=False, default=0)
    _deadline_greedy_fallbacks: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        if self.selector_mode not in ("auto", "exhaustive", "gibbs"):
            raise ValueError(
                f"selector_mode must be 'auto', 'exhaustive' or 'gibbs', got {self.selector_mode!r}"
            )
        if self.exhaustive_limit < 1:
            raise ValueError("exhaustive_limit must be at least 1")
        if self.solve_deadline < 0:
            raise ValueError(
                f"solve_deadline must be non-negative, got {self.solve_deadline}"
            )
        # One kernel cache per solver (i.e. per policy): selectors re-bind
        # its compiled structures instead of recompiling per slot, and the
        # warm-start duals it carries never leak across policies — which is
        # what keeps parallel study workers byte-identical to serial runs.
        self._cache = KernelCache()
        # Selectors are stateless across slots; building them once keeps the
        # drop-retry loop in :meth:`solve` from re-allocating them on every
        # iteration.  The Gibbs selector is built lazily so exhaustive-only
        # configurations keep working with Gibbs parameters (gamma,
        # iterations) its validation would reject.
        self._exhaustive = ExhaustiveRouteSelector(
            cache=self._cache, dual_tolerance=self.dual_tolerance
        )
        self._gibbs = None

    def reset(self) -> None:
        """Forget compiled structures, warm-start duals and kernel stats.

        Policies call this from their own ``reset`` so that re-running the
        same policy object produces bit-identical results: nothing carried
        over from a previous run can influence the next one.
        """
        self._cache.reset()
        self._exhaustive_slots = 0
        self._gibbs_slots = 0
        self._greedy_slots = 0
        self._deadline_gibbs_fallbacks = 0
        self._deadline_greedy_fallbacks = 0

    def kernel_stats(self) -> Dict[str, int]:
        """Aggregate kernel statistics since the last :meth:`reset`.

        Besides the cache's counters the mapping carries
        ``exhaustive_slots`` / ``gibbs_slots`` — how many slot solves covered
        the combination space exhaustively (the ``used_exhaustive`` flag of
        each :class:`PerSlotSolution`, summed) — so run-level health lines
        can report solver exactness alongside the kernel reuse counters.
        """
        stats = self._cache.aggregate_stats()
        stats["exhaustive_slots"] = self._exhaustive_slots
        stats["gibbs_slots"] = self._gibbs_slots
        if self.solve_deadline > 0:
            # Ladder counters only exist when a deadline is set, so
            # deadline-free runs keep their historical stats payload.
            stats["greedy_slots"] = self._greedy_slots
            stats["deadline_gibbs_fallbacks"] = self._deadline_gibbs_fallbacks
            stats["deadline_greedy_fallbacks"] = self._deadline_greedy_fallbacks
        return stats

    def _gibbs_selector(self) -> GibbsRouteSelector:
        if self._gibbs is None:
            self._gibbs = GibbsRouteSelector(
                cache=self._cache,
                gamma=self.gamma,
                iterations=self.gibbs_iterations,
                parallel_updates=self.parallel_updates,
                dual_tolerance=self.dual_tolerance,
            )
        return self._gibbs

    def _greedy_select(
        self,
        context: SlotContext,
        requests: Sequence[SDPair],
        utility_weight: float,
        cost_weight: float,
        budget_cap: Optional[float],
    ) -> RouteSelectionResult:
        """The ladder's last rung: one evaluation of the warm-start combination.

        Every request takes its first (shortest) candidate route — the same
        combination the Gibbs sampler starts from — and Algorithm 2 allocates
        it once.  Deterministic, seed-free, and exactly one evaluation.
        """
        kernel = bind_servable(
            self._cache, context, requests,
            utility_weight, cost_weight, budget_cap, self.dual_tolerance,
        )
        if kernel is None:
            return empty_selection()
        initial = tuple(0 for _ in kernel.sizes)
        outcome = kernel.outcome_for(initial)
        objective = outcome.objective if outcome.feasible else float("-inf")
        return RouteSelectionResult(
            selection=kernel.selection_for(initial),
            outcome=outcome,
            objective=objective,
            evaluations=kernel.evaluations,
        )

    def _select(
        self,
        context: SlotContext,
        requests: Sequence[SDPair],
        utility_weight: float,
        cost_weight: float,
        budget_cap: Optional[float],
        seed: SeedLike,
    ) -> Tuple[RouteSelectionResult, str, bool]:
        """Run the configured route selector (under the solve deadline, if any).

        Returns ``(result, selector, exhaustive_search)`` where ``selector``
        is the selector that ran (``"exhaustive"``/``"gibbs"``/``"greedy"``)
        and ``exhaustive_search`` whether the combination space was covered
        exhaustively — true for the exhaustive selector, and also for a
        Gibbs or greedy run over a space of at most one combination (which
        any selector necessarily visits in full).
        """
        combinations = self._exhaustive.combination_count(context, requests)
        budget = int(self.solve_deadline)
        want_exhaustive = self.selector_mode == "exhaustive" or (
            self.selector_mode == "auto" and combinations <= self.exhaustive_limit
        )
        if want_exhaustive and (budget <= 0 or combinations <= budget):
            result = self._exhaustive.select(
                context, requests, utility_weight, cost_weight, budget_cap, seed
            )
            return result, "exhaustive", True
        if budget > 0 and self.gibbs_iterations + 1 > budget:
            # Even the sampler's nominal cost blows the budget: greedy rung.
            self._deadline_greedy_fallbacks += 1
            result = self._greedy_select(
                context, requests, utility_weight, cost_weight, budget_cap
            )
            return result, "greedy", combinations <= 1
        if want_exhaustive:
            # Only reachable with a deadline set: the exhaustive space was
            # too large for the budget, so the sampler takes over.
            self._deadline_gibbs_fallbacks += 1
        result = self._gibbs_selector().select(
            context, requests, utility_weight, cost_weight, budget_cap, seed
        )
        return result, "gibbs", combinations <= 1

    def solve(
        self,
        context: SlotContext,
        utility_weight: float = 1.0,
        cost_weight: float = 0.0,
        budget_cap: Optional[float] = None,
        seed: SeedLike = None,
    ) -> PerSlotSolution:
        """Solve P2 for ``context`` and return the slot decision.

        ``utility_weight`` is ``V`` (use 1 for the plain utility), and
        ``cost_weight`` the virtual-queue price ``q_t`` (use 0 when the cost
        is controlled by ``budget_cap`` instead, as the baselines do).
        """
        rng = as_generator(seed)
        servable = list(context.servable_requests())
        no_routes = tuple(r for r in context.requests if r not in set(servable))

        # Shortest-candidate hop counts, used to pick drop-retry victims.
        # Computed once up front instead of once per retry iteration.
        min_hops: Dict[SDPair, int] = {
            request: min(route.hops for route in context.routes_for(request))
            for request in servable
        }

        dropped: List[SDPair] = []
        evaluations = 0
        selector = "exhaustive"
        used_exhaustive = True
        while True:
            result, selector, used_exhaustive = self._select(
                context, servable, utility_weight, cost_weight, budget_cap, rng
            )
            evaluations += result.evaluations
            if result.feasible or not servable:
                break
            # Infeasible even for the best combination: drop the request with
            # the longest shortest-candidate route (it consumes the most
            # resources at the minimum allocation) and retry.
            victim = max(servable, key=min_hops.__getitem__)
            servable.remove(victim)
            dropped.append(victim)

        if used_exhaustive:
            self._exhaustive_slots += 1
        elif selector == "greedy":
            self._greedy_slots += 1
        else:
            self._gibbs_slots += 1

        unserved = tuple(no_routes) + tuple(dropped)
        if not result.selection:
            decision = SlotDecision.empty(unserved=unserved)
            return PerSlotSolution(
                decision=decision,
                objective=0.0,
                evaluations=evaluations,
                used_exhaustive=used_exhaustive,
                dropped_requests=tuple(dropped),
                selector=selector,
            )

        decision = SlotDecision(
            selection=dict(result.selection),
            allocation=dict(result.outcome.allocation),
            unserved=unserved,
        )
        return PerSlotSolution(
            decision=decision,
            objective=result.objective,
            evaluations=evaluations,
            used_exhaustive=used_exhaustive,
            dropped_requests=tuple(dropped),
            selector=selector,
        )
