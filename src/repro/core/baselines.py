"""Baseline routing policies.

The paper compares OSCAR against two myopic baselines (Sec. V-A3):

* **Myopic-Fixed (MF)** — the budget is split evenly over the horizon; each
  slot solves the per-slot utility maximisation under the hard per-slot cap
  ``C / T``.
* **Myopic-Adaptive (MA)** — like MF, but budget left over from earlier
  slots is redistributed over the remaining slots, i.e. the cap for slot
  ``t`` is ``(C − C_spent) / (T − t)``.

Two additional reference policies are provided for ablations and examples:

* :class:`UnconstrainedPolicy` — ignores the budget entirely and maximises
  the per-slot utility subject only to capacity constraints (an upper bound
  on achievable utility, and a lower bound on thrift).
* :class:`ShortestRouteUniformPolicy` — a naive heuristic that always picks
  the first (shortest) candidate route and spreads the per-slot budget
  share uniformly over its edges, without solving any optimisation problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.per_slot import PerSlotSolver
from repro.core.policy import RoutingPolicy
from repro.core.problem import SlotContext, SlotDecision
from repro.network.graph import QDNGraph
from repro.solvers.kernel import DEFAULT_DUAL_TOLERANCE
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive
from repro.workload.budget import BudgetTracker
from repro.workload.requests import SDPair


@dataclass
class _MyopicBase(RoutingPolicy):
    """Shared machinery of the myopic baselines: per-slot cap + P2 solver."""

    total_budget: float = 5000.0
    horizon: int = 200
    gamma: float = 500.0
    gibbs_iterations: int = 60
    selector_mode: str = "auto"
    exhaustive_limit: int = 64
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE
    solve_deadline: int = 0
    name: str = "myopic"

    _tracker: BudgetTracker = field(init=False, repr=False)
    _solver: PerSlotSolver = field(init=False, repr=False)
    _run_horizon: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_non_negative(self.total_budget, "total_budget")
        check_positive(self.horizon, "horizon")
        self._run_horizon = self.horizon
        self._solver = PerSlotSolver(
            selector_mode=self.selector_mode,
            exhaustive_limit=self.exhaustive_limit,
            gamma=self.gamma,
            gibbs_iterations=self.gibbs_iterations,
            dual_tolerance=self.dual_tolerance,
            solve_deadline=self.solve_deadline,
        )
        self._tracker = BudgetTracker(total_budget=self.total_budget, horizon=self._run_horizon)

    def reset(self, graph: QDNGraph, horizon: int) -> None:
        # The run horizon applies to this run only; the configured ``horizon``
        # stays untouched so reused policy objects are not silently rescaled.
        self._run_horizon = horizon
        self._tracker = BudgetTracker(total_budget=self.total_budget, horizon=self._run_horizon)
        # Fresh runs must not inherit compiled structures or warm-start
        # duals from a previous run of the same policy object.
        self._solver.reset()

    def _slot_cap(self) -> float:
        """The per-slot budget cap for the *next* slot (subclass hook)."""
        raise NotImplementedError

    def decide(self, context: SlotContext, seed: SeedLike = None) -> SlotDecision:
        cap = self._slot_cap()
        solution = self._solver.solve(
            context,
            utility_weight=1.0,
            cost_weight=0.0,
            budget_cap=cap,
            seed=seed,
        )
        self._tracker.record(solution.decision.cost())
        return solution.decision

    @property
    def budget_tracker(self) -> BudgetTracker:
        """The spending tracker of the current run."""
        return self._tracker

    def diagnostics(self) -> dict:
        return {
            "spent": self._tracker.spent,
            "per_slot_costs": self._tracker.per_slot_costs,
            "kernel": self._solver.kernel_stats(),
        }


@dataclass
class MyopicFixedPolicy(_MyopicBase):
    """Myopic-Fixed (MF): hard per-slot budget ``C / T`` every slot."""

    name: str = "MF"

    def _slot_cap(self) -> float:
        return self._tracker.fixed_share()


@dataclass
class MyopicAdaptivePolicy(_MyopicBase):
    """Myopic-Adaptive (MA): unspent budget is spread over the remaining slots."""

    name: str = "MA"

    def _slot_cap(self) -> float:
        return self._tracker.adaptive_share()


@dataclass
class UnconstrainedPolicy(_MyopicBase):
    """Budget-oblivious reference: per-slot utility maximisation, no cap.

    Useful as an upper bound on per-slot entanglement performance (and as a
    demonstration of how badly the budget can be blown without control).
    """

    name: str = "Unconstrained"

    def _slot_cap(self) -> float:
        return math.inf

    def decide(self, context: SlotContext, seed: SeedLike = None) -> SlotDecision:
        solution = self._solver.solve(
            context,
            utility_weight=1.0,
            cost_weight=0.0,
            budget_cap=None,
            seed=seed,
        )
        self._tracker.record(solution.decision.cost())
        return solution.decision


@dataclass
class ShortestRouteUniformPolicy(RoutingPolicy):
    """Naive heuristic: shortest candidate route + uniform channel spreading.

    The per-slot budget share ``C / T`` is divided evenly among the served
    requests, and each request spreads its share evenly over the edges of
    its shortest candidate route (at least one channel per edge, capped by
    the edge/node availability).  No optimisation problem is solved, which
    makes this a useful "how much does the optimisation actually buy us"
    reference point.
    """

    total_budget: float = 5000.0
    horizon: int = 200
    name: str = "ShortestUniform"

    _tracker: BudgetTracker = field(init=False, repr=False)
    _run_horizon: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_non_negative(self.total_budget, "total_budget")
        check_positive(self.horizon, "horizon")
        self._run_horizon = self.horizon
        self._tracker = BudgetTracker(total_budget=self.total_budget, horizon=self._run_horizon)

    def reset(self, graph: QDNGraph, horizon: int) -> None:
        self._run_horizon = horizon
        self._tracker = BudgetTracker(total_budget=self.total_budget, horizon=self._run_horizon)

    def decide(self, context: SlotContext, seed: SeedLike = None) -> SlotDecision:
        servable = list(context.servable_requests())
        unserved: List[SDPair] = [r for r in context.requests if r not in set(servable)]
        if not servable:
            decision = SlotDecision.empty(unserved=tuple(unserved))
            self._tracker.record(0)
            return decision

        share_per_request = max(
            1.0, self._tracker.fixed_share() / max(len(servable), 1)
        )
        remaining_qubits: Dict[object, int] = {
            node: context.snapshot.available_qubits(node) for node in context.graph.nodes
        }
        remaining_channels: Dict[object, int] = {
            key: context.snapshot.available_channels(key) for key in context.graph.edges
        }

        selection = {}
        allocation = {}
        for request in servable:
            route = min(context.routes_for(request), key=lambda r: r.hops)
            per_edge = max(1, int(share_per_request // max(route.hops, 1)))
            # Work on trial copies so a route that ends up infeasible halfway
            # through does not consume resources (and so a node shared by two
            # edges of the same route is charged for both).
            trial_channels = dict(remaining_channels)
            trial_qubits = dict(remaining_qubits)
            edge_values = {}
            feasible = True
            for key in route.edges:
                value = min(
                    per_edge,
                    trial_channels.get(key, 0),
                    trial_qubits.get(key[0], 0),
                    trial_qubits.get(key[1], 0),
                )
                if value < 1:
                    feasible = False
                    break
                edge_values[key] = value
                trial_channels[key] -= value
                trial_qubits[key[0]] -= value
                trial_qubits[key[1]] -= value
            if not feasible:
                unserved.append(request)
                continue
            selection[request] = route
            for key, value in edge_values.items():
                allocation[(request, key)] = value
            remaining_channels = trial_channels
            remaining_qubits = trial_qubits

        decision = SlotDecision(
            selection=selection, allocation=allocation, unserved=tuple(unserved)
        )
        self._tracker.record(decision.cost())
        return decision

    @property
    def budget_tracker(self) -> BudgetTracker:
        """The spending tracker of the current run."""
        return self._tracker

    def diagnostics(self) -> dict:
        return {
            "spent": self._tracker.spent,
            "per_slot_costs": self._tracker.per_slot_costs,
        }
