"""Algorithm 1 — OSCAR: Online uSer-Centric entAnglement Routing.

OSCAR converts the long-term problem P1 into a sequence of per-slot problems
P2 using the Lyapunov drift-plus-penalty framework:

1. observe the slot's EC requests and resource availability;
2. solve P2 with utility weight ``V`` and cost price ``q_t`` (the virtual
   queue length) — route selection by Gibbs sampling / exhaustive search and
   qubit allocation by continuous relaxation plus rounding;
3. update the virtual queue ``q_{t+1} = max(0, q_t + c_t − C/T)``.

The parameters mirror the paper's notation: ``V`` trades entanglement
performance against budget adherence, ``q0`` is the initial virtual-queue
length, ``γ`` the Gibbs temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.per_slot import PerSlotSolver
from repro.core.policy import RoutingPolicy
from repro.core.problem import SlotContext, SlotDecision
from repro.core.virtual_queue import VirtualQueue
from repro.network.graph import QDNGraph
from repro.solvers.kernel import DEFAULT_DUAL_TOLERANCE
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive
from repro.workload.budget import BudgetTracker


@dataclass
class OscarPolicy(RoutingPolicy):
    """The paper's OSCAR policy (Algorithm 1).

    Parameters
    ----------
    total_budget:
        The user's long-term qubit budget ``C`` (paper default 5000).
    horizon:
        The number of slots ``T`` the budget must cover (paper default 200).
    trade_off_v:
        The Lyapunov parameter ``V`` (paper default 2500).
    initial_queue:
        The initial virtual-queue length ``q0`` (paper default 10).
    gamma:
        Gibbs-sampling temperature ``γ`` (paper default 500).
    gibbs_iterations:
        Proposals per slot for the Gibbs route selector.
    selector_mode:
        ``"auto"`` (default), ``"exhaustive"`` or ``"gibbs"``.
    exhaustive_limit:
        Combination-count threshold below which exhaustive search is used in
        ``"auto"`` mode.
    parallel_updates:
        Enable the paper's simultaneous updates of resource-disjoint pairs.
    dual_tolerance:
        Relative duality-gap tolerance of the kernel's early stop; ``0``
        selects replay mode (the fixed iteration schedule, no warm start).
    solve_deadline:
        Per-slot solve budget in combination evaluations (0 = unlimited);
        see :class:`~repro.core.per_slot.PerSlotSolver`'s degradation
        ladder.
    """

    total_budget: float = 5000.0
    horizon: int = 200
    trade_off_v: float = 2500.0
    initial_queue: float = 10.0
    gamma: float = 500.0
    gibbs_iterations: int = 60
    selector_mode: str = "auto"
    exhaustive_limit: int = 64
    parallel_updates: bool = False
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE
    solve_deadline: int = 0
    name: str = "OSCAR"

    _queue: VirtualQueue = field(init=False, repr=False)
    _tracker: BudgetTracker = field(init=False, repr=False)
    _solver: PerSlotSolver = field(init=False, repr=False)
    _objective_history: List[float] = field(init=False, repr=False, default_factory=list)
    _run_horizon: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_non_negative(self.total_budget, "total_budget")
        check_positive(self.horizon, "horizon")
        check_positive(self.trade_off_v, "trade_off_v")
        check_non_negative(self.initial_queue, "initial_queue")
        check_positive(self.gamma, "gamma")
        self._solver = PerSlotSolver(
            selector_mode=self.selector_mode,
            exhaustive_limit=self.exhaustive_limit,
            gamma=self.gamma,
            gibbs_iterations=self.gibbs_iterations,
            parallel_updates=self.parallel_updates,
            dual_tolerance=self.dual_tolerance,
            solve_deadline=self.solve_deadline,
        )
        self._run_horizon = self.horizon
        self._queue = VirtualQueue.for_budget(
            self.total_budget, self._run_horizon, self.initial_queue
        )
        self._tracker = BudgetTracker(total_budget=self.total_budget, horizon=self._run_horizon)
        self._objective_history = []

    # ------------------------------------------------------------------ #
    # RoutingPolicy interface
    # ------------------------------------------------------------------ #
    def reset(self, graph: QDNGraph, horizon: int) -> None:
        """Start a fresh run of ``horizon`` slots.

        The run horizon overrides the configured ``T`` for this run only
        (the per-slot budget share becomes ``C / horizon``); the configured
        :attr:`horizon` is left untouched so a reused policy object returns
        to its configured behaviour on the next run.
        """
        self._run_horizon = horizon
        self._queue = VirtualQueue.for_budget(
            self.total_budget, self._run_horizon, self.initial_queue
        )
        self._tracker = BudgetTracker(total_budget=self.total_budget, horizon=self._run_horizon)
        self._objective_history = []
        # Fresh runs must not inherit compiled structures or warm-start
        # duals from a previous run of the same policy object.
        self._solver.reset()

    @property
    def run_horizon(self) -> int:
        """The horizon of the current run (set by :meth:`reset`)."""
        return self._run_horizon

    def decide(self, context: SlotContext, seed: SeedLike = None) -> SlotDecision:
        """Solve P2 with the current queue price, then update the queue."""
        solution = self._solver.solve(
            context,
            utility_weight=self.trade_off_v,
            cost_weight=self._queue.length,
            budget_cap=None,
            seed=seed,
        )
        cost = solution.decision.cost()
        self._queue.update(cost)
        self._tracker.record(cost)
        self._objective_history.append(solution.objective)
        return solution.decision

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def virtual_queue(self) -> VirtualQueue:
        """The live virtual queue (mainly for diagnostics and tests)."""
        return self._queue

    @property
    def budget_tracker(self) -> BudgetTracker:
        """The spending tracker of the current run."""
        return self._tracker

    def queue_length(self) -> float:
        return self._queue.length

    def diagnostics(self) -> dict:
        """Queue history, spending and per-slot P2 objectives of the current run."""
        return {
            "queue_history": self._queue.history,
            "spent": self._tracker.spent,
            "per_slot_costs": self._tracker.per_slot_costs,
            "objective_history": list(self._objective_history),
            "kernel": self._solver.kernel_stats(),
        }
