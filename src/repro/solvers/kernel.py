"""The compiled slot kernel: horizon-amortised evaluation of route combinations.

The OSCAR loop nests three solvers: Gibbs route selection (Algorithm 3)
around qubit allocation (Algorithm 2) around a dual-decomposition
relaxation.  A Gibbs proposal changes a single request's route and barely
moves the optimal dual multipliers, so the kernel compiles the problem once
and re-solves it incrementally instead of rebuilding it per combination.

The kernel is split into two layers:

* :class:`CompiledStructure` — everything that depends only on the *static*
  topology: a global constraint-row registry over every node and edge of the
  graph, and, compiled on first use and memoised, one block per candidate
  route and one structure per route combination.  A route block holds its
  single-channel success probabilities ``p_e``, its hops' registry rows and
  its own first-touch node and edge rows.  A combination concatenates its
  blocks into ``p``, the first-touch constraint order and the local row
  indices, with the loads at one channel per variable; its membership
  matrix, transpose, row lists and ``-log1p(-p_e)`` tables are built only
  when a solve reads them.  All of it is reusable across the drop-retry
  loop, consecutive slots and whole horizons, because only right-hand
  sides change slot to slot.
* :class:`SlotKernel` — a thin per-slot *binding* of a structure: it rewrites
  the capacity/occupancy right-hand sides from the slot's resource snapshot,
  the cost weight ``q_t`` and the budget cap, and evaluates route
  combinations incrementally on top of the compiled arrays.

:class:`KernelCache` owns the structures (keyed by a content signature over
the graph's nodes, edges and link physics) and the cross-slot warm-start
state; :meth:`KernelCache.bind` is the only way to build a
:class:`SlotKernel`.  ``dual_tolerance`` selects one of two modes:

* **adaptive** (``dual_tolerance > 0``, the default): the subgradient ascent
  of each solve is seeded with the best dual multipliers seen so far — they
  are indexed by physical node/edge, so they remain meaningful across
  combinations *and across slots* — and stops early once the duality gap
  falls below ``dual_tolerance``.  Exact KKT shortcuts skip the ascent when
  the unconstrained optimum is feasible or only the budget row binds, and
  exhaustive enumerations are solved in one batched, dual-bound-pruned pass;
* **replay** (``dual_tolerance=0``): every solve runs the fixed
  150-iteration diminishing-step subgradient schedule from zero
  multipliers, with no warm start, no shortcut and no pruning.

The repaired primal point is polished with
:func:`~repro.solvers.relaxed.cyclic_coordinate_polish` and rounded with
:func:`~repro.solvers.rounding.surplus_pass`.  Relax-and-round is not exact:
:mod:`repro.solvers.oracle` computes the true integer optimum of a
combination, and the tests pin the kernel against it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.guard import hooks as guard_hooks
from repro.network.channels import log_multi_channel_success
from repro.solvers.relaxed import (
    ContinuousSolution,
    _closed_form_best_response,
    cyclic_coordinate_polish,
)
from repro.solvers.rounding import IntegerSolution, surplus_pass
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.allocation import AllocationOutcome
    from repro.core.problem import AllocationKey, SlotContext
    from repro.network.graph import QDNGraph
    from repro.network.routes import Route
    from repro.workload.requests import SDPair

#: Default relative duality-gap tolerance of the warm-started early stop.
#: Calibrated empirically: polish + rounding absorb relative gaps up to
#: ~1e-3 without changing a single integer allocation (see the kernel test
#: suite), so 1e-4 keeps an order of magnitude of safety margin.
DEFAULT_DUAL_TOLERANCE = 1e-4

#: The keys every per-binding ``SlotKernel.stats`` dictionary carries (and
#: that :class:`KernelCache` aggregates across a horizon).
STAT_KEYS = (
    "solves",
    "cache_hits",
    "combo_hits",
    "memo_hits",
    "direct_solves",
    "pruned",
    "dual_iterations",
    "early_stops",
)

#: Hard cap on the subgradient steps of one solve.
DUAL_ITERATIONS = 150

#: Coordinate-polish sweeps over the relaxed point before rounding.
POLISH_ROUNDS = 2

#: Replay mode repairs and scores its primal iterate every this many steps.
PRIMAL_CHECK_EVERY = 25

#: Row-load slack within which a relaxed point counts as feasible.
FEASIBILITY_TOLERANCE = 1e-6

#: Cap on the step-size offset a warm start carries into the next solve.
STEP_OFFSET_CAP = 600

#: Bound on the number of compiled structures (topologies) per cache.
MAX_STRUCTURES = 4

#: Bound on the number of cached combination structures per topology.
MAX_COMBOS = 8192

#: Bound on the number of memoised solves per topology.
MAX_SOLVE_MEMO = 32768

_OUTCOME_CLS = None


def _outcome_class():
    """Lazily resolve :class:`AllocationOutcome` (breaks the core↔solvers cycle)."""
    global _OUTCOME_CLS
    if _OUTCOME_CLS is None:
        from repro.core.allocation import AllocationOutcome

        _OUTCOME_CLS = AllocationOutcome
    return _OUTCOME_CLS


def structure_signature(graph: "QDNGraph") -> Tuple:
    """Content signature of everything a :class:`CompiledStructure` compiles.

    Covers the node set (row registry), the edge set with its per-attempt
    link physics (the ``p_e`` tables) and the per-slot attempt budget.  Two
    graphs with equal signatures compile to interchangeable structures; any
    change — a removed edge, retuned loss, a different node ordering —
    yields a new signature and therefore a fresh structure.
    """
    return (
        tuple(graph.nodes),
        tuple((key, graph.attempt_success(key)) for key in graph.edges),
        graph.attempts_per_slot,
    )


class _RouteBlock:
    """Compiled arrays of one candidate route (request-independent).

    ``rows`` holds each hop's node, node, edge and budget registry rows;
    ``node_rows`` and ``edge_rows`` are the block's distinct node and edge
    rows in first-touch order, the pieces a combination's row order is
    concatenated from.
    """

    __slots__ = (
        "index", "edge_keys", "p", "rows", "node_rows", "edge_rows", "fast_path", "hops",
    )

    def __init__(
        self,
        index: int,
        edge_keys: List[Tuple[object, object]],
        p: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        self.index = index
        self.edge_keys = edge_keys
        self.p = p
        self.rows = rows
        self.node_rows = tuple(dict.fromkeys(rows[:, :2].ravel().tolist()))
        self.edge_rows = tuple(dict.fromkeys(rows[:, 2].tolist()))
        self.fast_path = not bool(np.any((p <= 0.0) | (p >= 1.0)))
        self.hops = len(edge_keys)


class _ComboStructure:
    """Static arrays of one route combination (request- and slot-independent).

    Everything here depends only on which routes were combined (and whether a
    budget row is active), so it is compiled once per distinct route
    multiset and reused across slots and request sets.  Each route block is
    compiled once; a combination concatenates its blocks' arrays into the
    fields the batched ascent reads: ``p``, the first-touch row order
    ``order_array``, the local row indices ``rows_local`` and the loads at
    one channel per variable ``lower_loads``.  The membership matrix, its
    transpose, the per-row and per-variable row lists, ``lower``, ``a``,
    ``neg_log1p`` and ``p_list`` are built on first read, so a combination
    that enumeration prunes before its integer stage never builds them.
    """

    __slots__ = (
        "n",
        "m",
        "p",
        "fast_path",
        "order_array",
        "rows_local",
        "lower_loads",
        "_membership",
        "_membership_t",
        "_row_members",
        "_var_rows",
        "_lower",
        "_a",
        "_neg_log1p",
        "_p_list",
    )

    def __init__(
        self, blocks: Sequence[_RouteBlock], budget_row: Optional[int], num_rows: int
    ) -> None:
        self.n = sum(block.hops for block in blocks)
        self.p = np.concatenate([block.p for block in blocks])
        self.fast_path = all(block.fast_path for block in blocks)

        # Active constraints: nodes by first touch, then edges, then the
        # budget.  The repair pass visits rows in this order.  A row is first
        # touched in the first block that holds it, so de-duplicating the
        # blocks' own first-touch sequences in block order gives the order.
        order = list(dict.fromkeys(chain.from_iterable(b.node_rows for b in blocks)))
        order.extend(dict.fromkeys(chain.from_iterable(b.edge_rows for b in blocks)))
        width = 3
        if budget_row is not None:
            order.append(budget_row)
            width = 4
        self.order_array = np.asarray(order, dtype=np.intp)
        m = len(order)
        self.m = m

        # Registry row -> local row; only the combination's rows are read back.
        local = np.empty(num_rows, dtype=np.intp)
        local[self.order_array] = np.arange(m)
        rows = np.concatenate([block.rows for block in blocks])
        self.rows_local = local[rows[:, :width]]
        self.lower_loads = np.bincount(self.rows_local.ravel(), minlength=m).astype(float)

        self._membership: Optional[np.ndarray] = None
        self._membership_t: Optional[np.ndarray] = None
        self._row_members: Optional[List[np.ndarray]] = None
        self._var_rows: Optional[List[np.ndarray]] = None
        self._lower: Optional[np.ndarray] = None
        self._a: Optional[np.ndarray] = None
        self._neg_log1p: Optional[np.ndarray] = None
        self._p_list: Optional[List[float]] = None

    @property
    def membership(self) -> np.ndarray:
        """``(m, n)`` 0/1 matrix: row ``r`` marks the variables constraint ``r`` holds."""
        if self._membership is None:
            n = self.n
            membership = np.zeros((self.m, n), dtype=float)
            width = self.rows_local.shape[1]
            membership[self.rows_local.ravel(), np.repeat(np.arange(n), width)] = 1.0
            self._membership = membership
        return self._membership

    @property
    def membership_t(self) -> np.ndarray:
        """A C-ordered copy of the transposed membership matrix."""
        if self._membership_t is None:
            self._membership_t = self.membership.T.copy()
        return self._membership_t

    @property
    def row_members(self) -> List[np.ndarray]:
        """The variables of each constraint row, ascending."""
        if self._row_members is None:
            membership = self.membership
            self._row_members = [np.nonzero(membership[r])[0] for r in range(self.m)]
        return self._row_members

    @property
    def var_rows(self) -> List[np.ndarray]:
        """The constraint rows of each variable (views into ``rows_local``)."""
        if self._var_rows is None:
            rows_local = self.rows_local
            self._var_rows = [rows_local[i] for i in range(self.n)]
        return self._var_rows

    @property
    def lower(self) -> np.ndarray:
        """Each variable's lower bound of one channel."""
        if self._lower is None:
            self._lower = np.ones(self.n, dtype=float)
        return self._lower

    @property
    def a(self) -> np.ndarray:
        """``-log(1 - p)`` per variable, with ``p`` clipped below one."""
        if self._a is None:
            self._a = -np.log1p(-np.clip(self.p, 0.0, 1.0 - 1e-15))
        return self._a

    @property
    def neg_log1p(self) -> np.ndarray:
        """``log(1 - p)`` per variable."""
        if self._neg_log1p is None:
            self._neg_log1p = np.log1p(-self.p)
        return self._neg_log1p

    @property
    def p_list(self) -> List[float]:
        """``p`` as Python floats, for the scalar integer objective."""
        if self._p_list is None:
            self._p_list = self.p.tolist()
        return self._p_list

    def upper_bounds(self, capacities: np.ndarray) -> np.ndarray:
        """Each variable's bound when every other member of its rows holds 1.

        A value below 1 means even one channel per edge does not fit.
        """
        return (capacities - self.lower_loads + 1.0)[self.rows_local].min(axis=1)

    def repair(self, x: np.ndarray, capacities: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Shrink ``x`` (in place) until every row is in capacity.

        After clipping into ``[1, upper]``, each violated row has its
        members reduced in proportion to their headroom above 1.
        Reductions only ever shrink ``x``, so the rows violated after the
        clip are a superset of the rows that need work — the common
        near-feasible iterate costs one matvec and no row loop.
        """
        lower = self.lower
        np.clip(x, lower, upper, out=x)
        violated = np.nonzero(self.membership @ x - capacities > 1e-12)[0]
        for r in violated:
            members = self.row_members[r]
            load = float(x[members].sum())
            excess = load - capacities[r]
            if excess <= 1e-12:
                continue
            headroom = x[members] - lower[members]
            total_headroom = headroom.sum()
            if total_headroom <= 0:
                continue
            reduction = np.minimum(headroom, headroom * (excess / total_headroom))
            shortfall = excess - reduction.sum()
            if shortfall > 1e-12:
                order_h = np.argsort(-(headroom - reduction))
                for index in order_h:
                    available = headroom[index] - reduction[index]
                    take = min(available, shortfall)
                    reduction[index] += take
                    shortfall -= take
                    if shortfall <= 1e-12:
                        break
            x[members] = x[members] - reduction
        return x

    def objective(self, x: np.ndarray, V: float, q: float) -> float:
        """The relaxed P2 objective ``V·Σ log P_i(x_i) − q·Σ x_i`` (vectorised)."""
        if self.fast_path:
            log_terms = np.log(-np.expm1(x * self.neg_log1p))
            return float(V * log_terms.sum() - q * x.sum())
        log_terms = np.empty_like(x)
        safe = self.p < 1.0
        log_terms[safe] = np.log(-np.expm1(x[safe] * self.neg_log1p[safe]))
        log_terms[~safe] = 0.0
        return float(V * log_terms.sum() - q * x.sum())

    def integer_objective(self, values: np.ndarray, V: float, q: float) -> float:
        """The P2 objective of an integer allocation, summed term by term."""
        utility = 0.0
        for p_i, value in zip(self.p_list, values):
            utility += log_multi_channel_success(p_i, float(value))
        return V * utility - q * float(values.sum())

    def is_feasible(self, x: np.ndarray, capacities: np.ndarray, tol: float) -> bool:
        """Whether ``x`` keeps every variable at >= 1 and every row in capacity."""
        if np.any(x < self.lower - tol):
            return False
        return not np.any(self.membership @ x > capacities + tol)


class CompiledStructure:
    """Static compiled state of one graph: row registry, route blocks, combos.

    The row registry covers *every* node and edge of the graph (nodes first,
    then edges, then one reserved budget row), so warm-start dual multipliers
    are indexed by physical resource and stay meaningful across route
    combinations, request sets and slots.  Route blocks and combination
    structures are compiled lazily and memoised.
    """

    def __init__(self, graph: "QDNGraph") -> None:
        nodes = graph.nodes
        edges = graph.edges
        self.node_row: Dict[object, int] = {node: i for i, node in enumerate(nodes)}
        self.edge_row: Dict[Tuple[object, object], int] = {
            key: len(nodes) + j for j, key in enumerate(edges)
        }
        self.budget_row: int = len(nodes) + len(edges)
        self.num_rows: int = self.budget_row + 1
        self._nodes = list(nodes)
        self._edges = list(edges)
        self.edge_success: Dict[Tuple[object, object], float] = {
            key: float(graph.slot_success(key)) for key in edges
        }

        self._route_blocks: Dict[object, _RouteBlock] = {}
        self._combos: "OrderedDict[Tuple, _ComboStructure]" = OrderedDict()

        # Warm-start state carried across combinations *and* slots: one
        # global multiplier vector over the full row registry, plus per-combo
        # best multipliers (a revisited combination re-seeds from its own
        # near-optimal duals rather than the last combination's).
        self.warm_mult = np.zeros(self.num_rows, dtype=float)
        self.warm_ready = False
        self.step_offset = 0
        self.combo_warm: Dict[Tuple, Tuple[np.ndarray, int]] = {}

        # Memoised solves: a solve is a deterministic function of the
        # combination, the active-row capacities and the (V, q, cap)
        # weights, so identical inputs — e.g. the myopic-fixed policy under
        # static resources, or a repeated queue price — reuse the previous
        # (relaxed, rounded) solution pair outright.
        self.solve_memo: "OrderedDict[Tuple, Tuple]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Lazy compilation
    # ------------------------------------------------------------------ #
    def block_for(self, route: "Route") -> _RouteBlock:
        """The compiled block of one candidate route (memoised)."""
        block = self._route_blocks.get(route)
        if block is None:
            edge_keys = list(route.edges)
            rows = [
                (
                    self.node_row[key[0]],
                    self.node_row[key[1]],
                    self.edge_row[key],
                    self.budget_row,
                )
                for key in edge_keys
            ]
            block = _RouteBlock(
                index=len(self._route_blocks),
                edge_keys=edge_keys,
                p=np.asarray([self.edge_success[key] for key in edge_keys], dtype=float),
                rows=np.asarray(rows, dtype=np.intp).reshape(-1, 4),
            )
            self._route_blocks[route] = block
        return block

    def combo_for(
        self, blocks: Sequence[_RouteBlock], use_budget: bool
    ) -> Tuple[Tuple, _ComboStructure, bool]:
        """The combination structure of a route multiset; (key, combo, was_cached)."""
        key = (tuple(block.index for block in blocks), use_budget)
        combo = self._combos.get(key)
        if combo is not None:
            self._combos.move_to_end(key)
            return key, combo, True
        combo = _ComboStructure(
            blocks, self.budget_row if use_budget else None, self.num_rows
        )
        self._combos[key] = combo
        while len(self._combos) > MAX_COMBOS:
            evicted, _ = self._combos.popitem(last=False)
            self.combo_warm.pop(evicted, None)
        return key, combo, False

    # ------------------------------------------------------------------ #
    # Per-slot right-hand sides
    # ------------------------------------------------------------------ #
    def bind_capacities(
        self, snapshot, budget_cap: Optional[float]
    ) -> np.ndarray:
        """The slot's capacity vector over the full row registry."""
        capacities = np.empty(self.num_rows, dtype=float)
        for node, row in self.node_row.items():
            capacities[row] = float(snapshot.available_qubits(node))
        for key, row in self.edge_row.items():
            capacities[row] = float(snapshot.available_channels(key))
        capacities[self.budget_row] = (
            math.inf if budget_cap is None else float(budget_cap)
        )
        return capacities

    def reset_warm_state(self) -> None:
        """Forget the carried dual multipliers (fresh-run semantics)."""
        self.warm_mult[:] = 0.0
        self.warm_ready = False
        self.step_offset = 0
        self.combo_warm.clear()
        self.solve_memo.clear()


class SlotKernel:
    """Per-slot binding of a :class:`CompiledStructure` (see module docstring).

    Built by :meth:`KernelCache.bind` only.  Every distinct route
    combination is solved at most once per binding and cached, and
    consecutive solves share warm-started dual multipliers (which persist on
    the structure across bindings, i.e. across slots).
    """

    def __init__(
        self,
        context: "SlotContext",
        requests: Sequence["SDPair"],
        candidate_routes: Sequence[Sequence["Route"]],
        utility_weight: float,
        cost_weight: float,
        budget_cap: Optional[float],
        dual_tolerance: float,
        structure: CompiledStructure,
    ) -> None:
        check_non_negative(utility_weight, "utility_weight")
        check_non_negative(cost_weight, "cost_weight")
        if budget_cap is not None:
            check_non_negative(budget_cap, "budget_cap")
        self._requests = list(requests)
        self._candidates = [list(routes) for routes in candidate_routes]
        self._utility_weight = float(utility_weight)
        self._cost_weight = float(cost_weight)
        self._budget_cap = None if budget_cap is None else float(budget_cap)
        self._dual_tolerance = float(dual_tolerance)
        #: Adaptive mode (``dual_tolerance > 0``): warm-started duals, the
        #: exact KKT shortcuts and the batched enumeration.  Replay mode
        #: promises the fixed schedule from zero multipliers instead.
        self.adaptive = self._dual_tolerance > 0.0
        self._structure = structure
        self._blocks: List[List[_RouteBlock]] = [
            [self._structure.block_for(route) for route in routes]
            for routes in self._candidates
        ]
        self._capacities = self._structure.bind_capacities(
            context.snapshot, self._budget_cap
        )
        self._use_budget = self._budget_cap is not None

        self._cache: Dict[Tuple[int, ...], "AllocationOutcome"] = {}
        # Combination structures already looked up by the batch pre-pass on
        # behalf of a scalar-routed solve: maps combo key to whether that
        # first lookup was a cache hit, so _solve does not re-count it.
        self._combo_precounted: Dict[Tuple, bool] = {}
        self.evaluations = 0
        self.stats: Dict[str, int] = {key: 0 for key in STAT_KEYS}

    @property
    def utility_weight(self) -> float:
        """``V`` of this binding."""
        return self._utility_weight

    @property
    def cost_weight(self) -> float:
        """``q_t`` of this binding."""
        return self._cost_weight

    @property
    def sizes(self) -> Tuple[int, ...]:
        """The number of candidate routes of each bound request."""
        return tuple(len(routes) for routes in self._candidates)

    # ------------------------------------------------------------------ #
    # Evaluator interface (used by the route selectors)
    # ------------------------------------------------------------------ #
    def selection_for(self, assignment: Tuple[int, ...]) -> Dict["SDPair", "Route"]:
        """The route mapping corresponding to an index assignment."""
        return {
            request: self._candidates[i][choice]
            for i, (request, choice) in enumerate(zip(self._requests, assignment))
        }

    def outcome_for(self, assignment: Tuple[int, ...]) -> "AllocationOutcome":
        """Allocate qubits for the combination, with caching."""
        key = tuple(int(choice) for choice in assignment)
        outcome = self._cache.get(key)
        if outcome is None:
            outcome = self._solve(key)
            self._cache[key] = outcome
            self.evaluations += 1
        else:
            self.stats["cache_hits"] += 1
        return outcome

    def objective(self, assignment: Tuple[int, ...]) -> float:
        """P2 objective of the combination; ``-inf`` when infeasible."""
        outcome = self.outcome_for(assignment)
        if not outcome.feasible:
            return float("-inf")
        return outcome.objective

    def rows_for(
        self, assignment: Tuple[int, ...]
    ) -> Tuple[Optional[_ComboStructure], np.ndarray]:
        """The compiled combination of an assignment and its slot capacities.

        ``combo.membership`` has one row per active node, edge (and budget)
        constraint over the combination's variables, ``combo.p`` holds each
        variable's single-channel success, and the returned capacities are
        this slot's right-hand sides of those rows.  The combination is
        ``None`` when the assignment has no variables.
        """
        blocks = [self._blocks[i][choice] for i, choice in enumerate(assignment)]
        if not blocks or all(block.hops == 0 for block in blocks):
            return None, np.empty(0)
        _, combo, _ = self._structure.combo_for(blocks, self._use_budget)
        return combo, self._capacities[combo.order_array]

    # ------------------------------------------------------------------ #
    # Batched evaluation (horizon mode)
    # ------------------------------------------------------------------ #
    def evaluate_all(self, assignments) -> None:
        """Solve every given route combination, batching the dual ascents.

        The exhaustive selector enumerates every combination of a slot; each
        one is a tiny problem (tens of variables), so solving them one by one
        pays NumPy's fixed per-call overhead hundreds of times per slot.
        This method runs all still-unsolved combinations through one
        lock-step, padded, batched projected-subgradient ascent — the same
        warm-started, duality-gap-certified algorithm as :meth:`_solve`, with
        the in-loop repair/polish replaced by their vectorised, feasibility-
        guaranteed counterparts — and populates the outcome cache so the
        subsequent argmax walk is pure lookups.

        Only active in horizon-compiled adaptive mode; otherwise a no-op (the
        sequential path evaluates on demand).
        """
        self._evaluate_batch(assignments, prune=False)

    def best_of(
        self, assignments
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """The best combination of an enumeration, with dual-bound pruning.

        Like :meth:`evaluate_all` followed by an argmax walk, but most
        combinations never reach the integer stage: the certified dual value
        of a combination is a valid upper bound on its rounded objective
        (rounded ≤ relaxed optimum ≤ dual), so combinations whose bound
        falls below the best rounded objective found so far are pruned after
        the batched relaxation.  Ties at the bound are never pruned, and the
        final argmax prefers earlier enumeration order exactly like the
        sequential walk, so the selected combination is unchanged.

        Returns ``None`` outside horizon-compiled adaptive mode (callers
        fall back to the plain evaluate-everything walk).
        """
        if not self.adaptive:
            return None
        order = [tuple(int(choice) for choice in a) for a in assignments]
        self._evaluate_batch(order, prune=True)
        best_key = order[0] if order else ()
        best_objective = float("-inf")
        for key in order:
            outcome = self._cache.get(key)
            if outcome is None:
                continue  # pruned: its dual bound is below the running best
            objective = outcome.objective if outcome.feasible else float("-inf")
            if objective > best_objective:
                best_objective = objective
                best_key = key
        if best_key not in self._cache:
            # Every combination was pruned-or-missing (cannot happen when at
            # least one was finalised, but stay defensive): solve the first.
            self.outcome_for(best_key)
        return best_key, best_objective

    def _evaluate_batch(self, assignments, prune: bool) -> None:
        if not self.adaptive:
            return
        structure = self._structure
        pending: List[Tuple[int, ...]] = []
        seen = set()
        for assignment in assignments:
            key = tuple(int(choice) for choice in assignment)
            if key in seen or key in self._cache:
                continue
            seen.add(key)
            pending.append(key)
        if not pending:
            return

        # Pre-pass: compile combos, bind capacities, and route the cases the
        # batch cannot represent (trivial, memoised, degenerate-probability,
        # bounds-infeasible) through the scalar path.
        batch: List[Tuple] = []
        for key in pending:
            blocks = [self._blocks[i][choice] for i, choice in enumerate(key)]
            if not blocks or all(block.hops == 0 for block in blocks):
                self.outcome_for(key)
                continue
            combo_key, combo, combo_cached = structure.combo_for(
                blocks, self._use_budget
            )
            capacities = self._capacities[combo.order_array]
            memo_key = (
                combo_key, self._utility_weight, self._cost_weight,
                self._budget_cap, capacities.tobytes(),
            )
            raw_upper = combo.upper_bounds(capacities)
            if (
                memo_key in structure.solve_memo
                or not combo.fast_path
                or bool(np.any(raw_upper < 1.0))
                or bool(np.any(combo.lower_loads > capacities + 1e-6))
            ):
                self._combo_precounted[combo_key] = combo_cached
                self.outcome_for(key)
                continue
            if combo_cached:
                self.stats["combo_hits"] += 1
            batch.append(
                (key, combo_key, combo, memo_key, blocks, capacities,
                 np.maximum(raw_upper, 1.0))
            )
        if not batch:
            return
        if len(batch) == 1:
            # Fall back to the scalar path; its combo lookup was already
            # counted above, so mark it pre-counted as a non-hit.
            key, combo_key = batch[0][0], batch[0][1]
            self._combo_precounted[combo_key] = False
            self.outcome_for(key)
            return

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self._solve_batch(batch, prune=prune)

    def _solve_batch(self, batch: List[Tuple], prune: bool = False) -> None:
        """Lock-step batched dual ascent over pre-validated combinations."""
        structure = self._structure
        V = self._utility_weight
        q = self._cost_weight
        tol = self._dual_tolerance
        C = len(batch)
        combos = [entry[2] for entry in batch]
        N = max(combo.n for combo in combos)
        M = max(combo.m for combo in combos)
        width = combos[0].rows_local.shape[1]
        BIG = 1e18

        # Padded batch arrays: padding variables are pinned to [1, 1] and
        # point at a per-combo dummy row (index M) with effectively infinite
        # capacity, so they influence neither objectives nor loads.
        mask = np.zeros((C, N), dtype=bool)
        p_b = np.full((C, N), 0.5)
        rows_b = np.full((C, N, width), M, dtype=np.intp)
        caps_b = np.full((C, M + 1), BIG)
        row_mask = np.zeros((C, M + 1), dtype=bool)
        upper_b = np.ones((C, N))
        for c, (key, combo_key, combo, memo_key, blocks, capacities, upper) in enumerate(batch):
            n, m = combo.n, combo.m
            mask[c, :n] = True
            p_b[c, :n] = combo.p
            rows_b[c, :n, :] = combo.rows_local
            caps_b[c, :m] = capacities
            row_mask[c, :m] = True
            upper_b[c, :n] = upper
        lower_b = np.ones((C, N))
        a_b = -np.log1p(-p_b)
        va_b = V * a_b
        neg_b = np.log1p(-p_b)

        idx0 = np.arange(C)[:, None, None]
        flat_rows = (np.arange(C)[:, None, None] * (M + 1) + rows_b).reshape(-1)

        def batch_loads(x: np.ndarray) -> np.ndarray:
            return np.bincount(
                flat_rows, weights=np.repeat(x.reshape(-1), width),
                minlength=C * (M + 1),
            ).reshape(C, M + 1)

        lower_loads_b = batch_loads(lower_b)

        def batch_obj(x: np.ndarray) -> np.ndarray:
            log_terms = np.log(-np.expm1(x * neg_b))
            return V * np.where(mask, log_terms, 0.0).sum(-1) - q * np.where(
                mask, x, 0.0
            ).sum(-1)

        def batch_best_response(prices: np.ndarray) -> np.ndarray:
            x = np.log1p(va_b / np.maximum(prices, 1e-300)) / a_b
            x = np.where(prices <= 0.0, upper_b, x)
            np.clip(x, lower_b, upper_b, out=x)
            return x

        def batch_repair(x: np.ndarray) -> np.ndarray:
            """Feasible by construction: each variable's excess over its
            lower bound is scaled by the worst slack/overflow ratio of its
            rows, so no row can end above its capacity."""
            np.clip(x, lower_b, upper_b, out=x)
            loads = batch_loads(x)
            over = loads - lower_loads_b
            avail = caps_b - lower_loads_b
            s_row = np.where(
                loads > caps_b + 1e-12,
                avail / np.maximum(over, 1e-300),
                1.0,
            )
            np.clip(s_row, 0.0, 1.0, out=s_row)
            s_var = s_row[idx0, rows_b].min(-1)
            return lower_b + (x - lower_b) * s_var

        def batch_polish(x: np.ndarray) -> np.ndarray:
            """Vectorised water-fill towards the per-variable optimum (the
            batch counterpart of the sequential ``fast_polish``)."""
            loads = batch_loads(x)
            slack = caps_b - loads
            head = slack[idx0, rows_b].min(-1)
            raise_by = np.clip(x_unc - x, 0.0, np.maximum(head, 0.0))
            inc = batch_loads(raise_by)
            ratios = np.where(inc > 0.0, slack / inc, 1.0)
            scale = np.minimum(1.0, ratios[idx0, rows_b].min(-1))
            lower_by = np.clip(x - x_unc, 0.0, x - lower_b)
            return x + raise_by * np.maximum(scale, 0.0) - lower_by

        x_unc = batch_best_response(np.full((C, N), q))

        # Warm starts: a seen combination re-uses its own multipliers, new
        # ones project the global per-resource vector onto their rows.
        mult = np.zeros((C, M + 1))
        offset_b = np.zeros(C)
        if self.adaptive:
            for c, entry in enumerate(batch):
                combo_key, combo = entry[1], entry[2]
                warm = structure.combo_warm.get(combo_key)
                if warm is not None:
                    mult[c, : combo.m] = warm[0]
                    offset_b[c] = warm[1]
                elif structure.warm_ready:
                    mult[c, : combo.m] = structure.warm_mult[combo.order_array]
                    offset_b[c] = structure.step_offset

        step_scale = np.asarray(
            [max(V, 1.0) / max(float(entry[5].max()), 1.0) for entry in batch]
        )
        step_cap = 5.0 * step_scale

        active = np.ones(C, dtype=bool)
        best_x = np.ones((C, N))
        best_obj = np.full(C, -np.inf)
        best_dual = np.full(C, np.inf)
        best_mult = np.zeros((C, M + 1))
        used = np.full(C, DUAL_ITERATIONS)
        max_iterations = DUAL_ITERATIONS

        for k in range(max_iterations):
            prices = q + mult[idx0, rows_b].sum(-1)
            x = batch_best_response(prices)
            loads = batch_loads(x)
            violation = np.where(row_mask, loads - caps_b, 0.0)
            dual = batch_obj(x) - (mult * violation).sum(-1)
            improved = active & (dual < best_dual)
            best_dual = np.where(improved, dual, best_dual)
            best_mult[improved] = mult[improved]
            candidate_for = active & (improved | (k == 0))
            if candidate_for.any():
                candidate = batch_polish(batch_repair(x.copy()))
                objective = batch_obj(candidate)
                better = candidate_for & (objective > best_obj)
                best_obj = np.where(better, objective, best_obj)
                best_x[better] = candidate[better]
            certified = active & np.isfinite(best_obj) & (
                best_dual - best_obj <= tol * np.maximum(1.0, np.abs(best_obj))
            )
            used[certified] = k + 1
            active &= ~certified
            if not active.any():
                break
            effective = np.where((mult > 0.0) | (violation > 0.0), violation, 0.0)
            norm2 = (effective * effective).sum(-1)
            step = (dual - best_obj) / np.maximum(norm2, 1e-12)
            fallback = step_scale / np.sqrt(offset_b + k + 1.0)
            step = np.where(
                (step > 0.0) & (step < step_cap),
                step,
                np.where(step >= step_cap, step_cap, fallback),
            )
            step = np.where(active & np.isfinite(step), step, 0.0)
            mult = np.maximum(0.0, mult + step[:, None] * violation)

        certified_count = int((used < max_iterations).sum())
        self.stats["early_stops"] += certified_count
        self.stats["dual_iterations"] += int(used.sum())
        self.stats["solves"] += C

        # Per-combo finish: full polish on the winner, shared integer
        # stage, warm-state bookkeeping.  With pruning, combos are finished
        # in descending dual-bound order and the integer stage stops once a
        # bound falls strictly below the best rounded objective so far — a
        # pruned combination provably cannot win the argmax.
        finish_order = range(C)
        if prune:
            finish_order = sorted(
                range(C), key=lambda c: float(best_dual[c]), reverse=True
            )
        best_rounded = -np.inf
        last_finished: Optional[int] = None
        for c in finish_order:
            if prune and float(best_dual[c]) < best_rounded:
                self.stats["pruned"] += 1
                continue
            key, combo_key, combo, memo_key, blocks, capacities, upper = batch[c]
            n, m = combo.n, combo.m
            x_c = best_x[c, :n].copy()
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                cyclic_coordinate_polish(
                    x_c, combo.lower, upper, combo.p, V, q,
                    combo.membership @ x_c, capacities, combo.var_rows,
                    POLISH_ROUNDS,
                )
            if self.adaptive:
                final_mult = best_mult[c, :m].copy()
                final_offset = int(min(offset_b[c] + used[c], STEP_OFFSET_CAP))
                structure.combo_warm[combo_key] = (final_mult, final_offset)
                last_finished = c
            outcome = self._finalise(
                combo, memo_key, self._allocation_keys(blocks), capacities, upper,
                x_c, int(used[c]),
            )
            self._cache[key] = outcome
            self.evaluations += 1
            if outcome.feasible and outcome.objective > best_rounded:
                best_rounded = outcome.objective
        if self.adaptive and last_finished is not None:
            combo = batch[last_finished][2]
            structure.warm_mult[combo.order_array] = best_mult[
                last_finished, : combo.m
            ]
            structure.warm_ready = True
            structure.step_offset = int(
                min(
                    offset_b[last_finished] + used[last_finished],
                    STEP_OFFSET_CAP,
                )
            )

    # ------------------------------------------------------------------ #
    # Per-combination solve
    # ------------------------------------------------------------------ #
    def _solve(self, assignment: Tuple[int, ...]) -> "AllocationOutcome":
        self.stats["solves"] += 1
        outcome_cls = _outcome_class()
        structure = self._structure
        blocks = [self._blocks[i][choice] for i, choice in enumerate(assignment)]
        if not blocks or all(block.hops == 0 for block in blocks):
            return outcome_cls(allocation={}, objective=0.0, feasible=True, cost=0)
        combo_key, combo, combo_cached = structure.combo_for(blocks, self._use_budget)
        precounted = self._combo_precounted.pop(combo_key, None)
        if combo_cached if precounted is None else precounted:
            self.stats["combo_hits"] += 1
        n = combo.n
        keys = self._allocation_keys(blocks)
        order_array = combo.order_array
        m = combo.m
        capacities = self._capacities[order_array]

        V = self._utility_weight
        q = self._cost_weight

        # A solve is a deterministic function of the combination, the
        # active-row capacities and the weights, so an exact input match —
        # common under static resources (myopic-fixed caps, repeated queue
        # prices, the drop-retry loop) — reuses the previous solution pair.
        memo_key = (combo_key, V, q, self._budget_cap, capacities.tobytes())
        memo = structure.solve_memo.get(memo_key)
        if memo is not None:
            structure.solve_memo.move_to_end(memo_key)
            self.stats["memo_hits"] += 1
            relaxed, rounded = memo
            return self._build_outcome(memo_key, keys, relaxed, rounded, store=False)

        lower = combo.lower
        raw_upper = combo.upper_bounds(capacities)
        infeasible_bounds = bool(np.any(raw_upper < 1.0))
        upper = np.maximum(raw_upper, 1.0)

        tolerance = FEASIBILITY_TOLERANCE

        def objective_np(x: np.ndarray) -> float:
            return combo.objective(x, V, q)

        # ----- minimum-footprint infeasibility: reject the combination --- #
        if infeasible_bounds or np.any(combo.lower_loads > capacities + 1e-6):
            relaxed = ContinuousSolution(
                values=tuple(1.0 for _ in range(n)),
                objective=objective_np(lower),
                feasible=False,
            )
            values = lower.astype(int)
            rounded = IntegerSolution(
                values=tuple(int(v) for v in values),
                objective=combo.integer_objective(lower, V, q),
                feasible=False,
            )
            return self._build_outcome(memo_key, keys, relaxed, rounded)

        p = combo.p
        rows_local = combo.rows_local
        membership = combo.membership
        membership_t = combo.membership_t
        var_rows = combo.var_rows
        fast_path = combo.fast_path
        a = combo.a
        va = V * a

        def repair(x: np.ndarray) -> np.ndarray:
            return combo.repair(x, capacities, upper)

        # ----- warm-started projected-subgradient dual ascent ------------ #
        step_scale = max(V, 1.0) / max(float(capacities.max()), 1.0)

        # Warm starts are an adaptive-mode feature (replay mode always starts
        # from zero).  A revisited combination re-seeds from its own best
        # multipliers (tight for it by construction); a new combination
        # falls back to the global per-resource vector of the previous solve.
        combo_warm = structure.combo_warm.get(combo_key) if self.adaptive else None
        if combo_warm is not None:
            mult = combo_warm[0].copy()
            offset = combo_warm[1]
        elif self.adaptive and structure.warm_ready:
            mult = structure.warm_mult[order_array].copy()
            offset = structure.step_offset
        else:
            mult = np.zeros(m, dtype=float)
            offset = 0

        base_prices = np.full(n, q)
        best_x: Optional[np.ndarray] = None
        best_objective = -math.inf
        best_dual = math.inf
        best_mult: Optional[np.ndarray] = None
        gap_tolerance = self._dual_tolerance
        max_iterations = DUAL_ITERATIONS
        check_every = PRIMAL_CHECK_EVERY
        used = max_iterations
        x = lower.copy()

        def polish(candidate: np.ndarray) -> np.ndarray:
            cyclic_coordinate_polish(
                candidate, lower, upper, p, V, q, membership @ candidate,
                capacities, var_rows, POLISH_ROUNDS,
            )
            return candidate

        x_unconstrained: Optional[np.ndarray] = None

        def fast_polish(candidate: np.ndarray) -> np.ndarray:
            """One vectorised water-fill step towards the per-variable optimum.

            The adaptive loop's cheap in-loop polish: every variable moves
            towards its unconstrained optimum
            simultaneously — decreases are always feasible, increases are
            capped by the row slacks and scaled back so that no shared row
            can overflow (each variable's scale is bounded by every one of
            its rows' slack/increase ratios).  ~10 array ops instead of a
            per-variable Python loop, at a slightly looser (still feasible)
            primal bound.
            """
            target = x_unconstrained
            slack = capacities - membership @ candidate
            headroom = slack[rows_local].min(axis=1)
            raise_by = np.clip(target - candidate, 0.0, np.maximum(headroom, 0.0))
            increase = membership @ raise_by
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(increase > 0.0, slack / increase, 1.0)
            scale = np.minimum(1.0, ratios[rows_local].min(axis=1))
            lower_by = np.clip(candidate - target, 0.0, candidate - lower)
            candidate += raise_by * np.maximum(scale, 0.0) - lower_by
            return candidate

        def best_response(prices: np.ndarray) -> np.ndarray:
            if fast_path:
                x = np.log1p(va / np.maximum(prices, 1e-300)) / a
                x = np.where(prices <= 0.0, upper, x)
                np.clip(x, lower, upper, out=x)
                return x
            return _closed_form_best_response(prices, p, V, lower, upper)

        direct = False
        direct_mult: Optional[np.ndarray] = None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.adaptive:
                # Exact KKT shortcuts of adaptive mode.  The
                # objective is separable and concave, so (a) a feasible
                # unconstrained best response is the optimum of the whole
                # relaxation, and (b) when only the budget row binds, the
                # optimum is the best response at ``q + λ*`` where the single
                # multiplier λ* makes the budget tight — found by bisection
                # (the total allocation is continuous and decreasing in λ).
                x0 = best_response(base_prices)
                x_unconstrained = x0
                loads0 = membership @ x0
                violated0 = loads0 > capacities + tolerance
                if not violated0.any():
                    best_x = x0
                    used = 1
                    direct = True
                    direct_mult = np.zeros(m, dtype=float)
                elif (
                    self._use_budget
                    and bool(violated0[m - 1])
                    and not violated0[: m - 1].any()
                ):
                    cap_total = capacities[m - 1]
                    lo, hi = 0.0, max(step_scale, 1.0)
                    evals = 1
                    while float(best_response(base_prices + hi).sum()) > cap_total and evals < 80:
                        lo, hi = hi, hi * 2.0
                        evals += 1
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        evals += 1
                        if float(best_response(base_prices + mid).sum()) > cap_total:
                            lo = mid
                        else:
                            hi = mid
                    x_star = best_response(base_prices + hi)
                    # λ > 0 may only tighten the other rows (x decreases in
                    # λ), so feasibility of the budget row is feasibility of
                    # the whole system.
                    if float(x_star.sum()) <= cap_total + tolerance:
                        best_x = x_star
                        used = evals
                        direct = True
                        direct_mult = np.zeros(m, dtype=float)
                        direct_mult[m - 1] = hi
                if direct:
                    self.stats["direct_solves"] += 1
                    best_objective = objective_np(best_x)
            if direct:
                pass
            elif self.adaptive:
                # Adaptive mode: Polyak-sized steps aimed at the best polished
                # primal bound, with a duality-gap early stop.  The repaired
                # subgradient iterate alone is a weak primal bound — polishing
                # every candidate is what makes the gap certify within a
                # handful of iterations (and what sizes the steps well).
                step_cap = 5.0 * step_scale
                for k in range(max_iterations):
                    prices = base_prices + membership_t @ mult
                    x = best_response(prices)
                    violation = membership @ x - capacities
                    dual_value = objective_np(x) - float(mult @ violation)
                    improved = dual_value < best_dual
                    if improved:
                        best_dual = dual_value
                        best_mult = mult.copy()
                    if improved or k == 0:
                        # A tighter dual iterate is also the better primal
                        # candidate; repairing/polishing only then skips the
                        # oscillating iterates.  The water-fill tightens the
                        # primal bound enough for the gap test; the winner
                        # gets the full polish after the loop.
                        repaired = repair(x.copy())
                        if combo.is_feasible(repaired, capacities, tolerance):
                            candidate = fast_polish(repaired)
                            objective = objective_np(candidate)
                            if objective > best_objective:
                                best_objective = objective
                                best_x = candidate
                    if (
                        best_x is not None
                        and best_dual - best_objective
                        <= gap_tolerance * max(1.0, abs(best_objective))
                    ):
                        used = k + 1
                        self.stats["early_stops"] += 1
                        break
                    # Polyak step towards the best primal bound; the reduced
                    # violation zeroes rows whose multiplier is pinned at 0.
                    effective = np.where((mult > 0.0) | (violation > 0.0), violation, 0.0)
                    norm2 = float(effective @ effective)
                    step = (dual_value - best_objective) / max(norm2, 1e-12)
                    if not (0.0 < step < step_cap):
                        step = (
                            step_cap
                            if step >= step_cap
                            else step_scale / math.sqrt(offset + k + 1.0)
                        )
                    mult = np.maximum(0.0, mult + step * violation)
            else:
                # Replay mode (``dual_tolerance=0``): the fixed
                # diminishing-step schedule from zero multipliers, with a
                # repaired primal checkpoint every ``PRIMAL_CHECK_EVERY``
                # iterations.
                for k in range(max_iterations):
                    prices = base_prices + membership_t @ mult
                    x = best_response(prices)
                    violation = membership @ x - capacities
                    step = step_scale / math.sqrt(offset + k + 1.0)
                    mult = np.maximum(0.0, mult + step * violation)
                    if (k + 1) % check_every == 0 or k == max_iterations - 1:
                        repaired = repair(x.copy())
                        if combo.is_feasible(repaired, capacities, tolerance):
                            objective = objective_np(repaired)
                            if objective > best_objective:
                                best_objective = objective
                                best_x = repaired

        self.stats["dual_iterations"] += used
        if self.adaptive:
            # Seed the next combination (or the next slot's binding) with the
            # multipliers of the best dual bound seen — the last subgradient
            # iterate oscillates; the best iterate is the tight one.  Direct
            # solves store their exact multipliers (zero, or λ* on the
            # budget row).
            if direct:
                final_mult = direct_mult
            else:
                final_mult = mult if best_mult is None else best_mult
            final_offset = min(offset + used, STEP_OFFSET_CAP)
            structure.warm_mult[order_array] = final_mult
            structure.warm_ready = True
            structure.step_offset = final_offset
            structure.combo_warm[combo_key] = (final_mult, final_offset)

        if best_x is None:
            best_x = repair(x.copy())
        if not direct:
            # The direct solutions are exact optima of the separable concave
            # relaxation, so only the others get the coordinate polish.
            best_x = polish(best_x)
        guard = guard_hooks.get()
        if guard is not None:
            # Strict-level dual certificates: multipliers stay finite and
            # non-negative, and the best dual value bounds the best feasible
            # primal value (weak duality).  Observational only — the solve
            # itself is untouched.
            guard.check_kernel_dual(
                best_dual,
                best_objective,
                multipliers=direct_mult
                if direct
                else (best_mult if best_mult is not None else mult),
                gap_tolerance=gap_tolerance,
            )
        return self._finalise(
            combo, memo_key, keys, capacities, upper, best_x, used
        )

    def _allocation_keys(
        self, blocks: Sequence[_RouteBlock]
    ) -> List[Tuple[object, Tuple[object, object]]]:
        """The ``(request, edge)`` key of each variable of a combination."""
        return [
            (request, edge)
            for request, block in zip(self._requests, blocks)
            for edge in block.edge_keys
        ]

    # ------------------------------------------------------------------ #
    # Shared integer stage (down-round + surplus) of a relaxed solution
    # ------------------------------------------------------------------ #
    def _finalise(
        self,
        combo: _ComboStructure,
        memo_key: Tuple,
        keys: List[Tuple[object, Tuple[object, object]]],
        capacities: np.ndarray,
        upper: np.ndarray,
        best_x: np.ndarray,
        used: int,
    ) -> "AllocationOutcome":
        """Round a (polished) relaxed point and build the cached outcome."""
        V = self._utility_weight
        q = self._cost_weight
        tolerance = FEASIBILITY_TOLERANCE

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            best_objective = combo.objective(best_x, V, q)
            relaxed_feasible = combo.is_feasible(best_x, capacities, tolerance)
            relaxed = ContinuousSolution(
                values=tuple(float(v) for v in best_x),
                objective=best_objective,
                feasible=relaxed_feasible,
                iterations=used,
            )

            # ----- down-round and hand out the surplus ------------------- #
            floored = np.maximum(np.floor(best_x + 1e-9), 1.0)
            if not (relaxed_feasible and combo.is_feasible(floored, capacities, 1e-6)):
                rounded = IntegerSolution(
                    values=tuple(int(v) for v in floored),
                    objective=combo.integer_objective(floored, V, q),
                    feasible=False,
                )
                return self._build_outcome(memo_key, keys, relaxed, rounded)

            loads = combo.membership @ floored
            slack_total = float(np.sum(np.maximum(capacities - loads, 0.0)))
            surplus_pass(
                floored, upper, combo.p, V, q, loads, capacities, combo.rows_local,
                int(slack_total) + combo.n,
            )
            objective = combo.integer_objective(floored, V, q)
            if not math.isfinite(objective):
                objective = float("-inf")
            rounded = IntegerSolution(
                values=tuple(int(v) for v in floored),
                objective=objective,
                feasible=True,
            )
            return self._build_outcome(memo_key, keys, relaxed, rounded)

    def _build_outcome(
        self,
        memo_key: Tuple,
        keys: List[Tuple[object, Tuple[object, object]]],
        relaxed: ContinuousSolution,
        rounded: IntegerSolution,
        store: bool = True,
    ) -> "AllocationOutcome":
        """The single point where solved pairs enter the memo and become outcomes."""
        guard = guard_hooks.get()
        if guard is not None:
            guard.check_kernel_solution(relaxed, rounded)
        if store:
            structure = self._structure
            structure.solve_memo[memo_key] = (relaxed, rounded)
            while len(structure.solve_memo) > MAX_SOLVE_MEMO:
                structure.solve_memo.popitem(last=False)
        allocation = {
            key: int(value) for key, value in zip(keys, rounded.values)
        }
        return _outcome_class()(
            allocation=allocation,
            objective=rounded.objective,
            feasible=rounded.feasible,
            cost=int(sum(rounded.values)) if rounded.feasible else 0,
            integer_solution=rounded,
            relaxed_solution=relaxed,
        )


class KernelCache:
    """Horizon-scoped cache of compiled structures and aggregate kernel stats.

    Owned by one :class:`~repro.core.per_slot.PerSlotSolver` (i.e. one
    policy): route selectors call :meth:`bind` once per select — across the
    drop-retry loop, consecutive slots and whole horizons — and get back a
    :class:`SlotKernel` bound to the slot's right-hand sides but sharing the
    compiled structure and the carried warm-start duals.  The cache is
    strictly per-process and per-policy, so parallel study workers (which
    each build their own solvers) stay byte-identical to serial runs.
    """

    def __init__(self) -> None:
        self._structures: "OrderedDict[Tuple, CompiledStructure]" = OrderedDict()
        self._last_kernel: Optional[SlotKernel] = None
        self._totals: Dict[str, int] = {key: 0 for key in STAT_KEYS}
        self._totals["binds"] = 0
        self._totals["structure_compiles"] = 0
        self._totals["evaluations"] = 0

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(
        self,
        context: "SlotContext",
        requests: Sequence["SDPair"],
        candidate_routes: Sequence[Sequence["Route"]],
        utility_weight: float = 1.0,
        cost_weight: float = 0.0,
        budget_cap: Optional[float] = None,
        dual_tolerance: float = DEFAULT_DUAL_TOLERANCE,
    ) -> SlotKernel:
        """Bind a kernel for this slot, compiling the structure only on miss.

        ``dual_tolerance`` selects adaptive (``> 0``) or replay (``0``)
        mode; see the module docstring.
        """
        check_non_negative(dual_tolerance, "dual_tolerance")
        self._flush_last()
        signature = structure_signature(context.graph)
        structure = self._structures.get(signature)
        if structure is None:
            structure = CompiledStructure(context.graph)
            self._structures[signature] = structure
            self._totals["structure_compiles"] += 1
            while len(self._structures) > MAX_STRUCTURES:
                self._structures.popitem(last=False)
        else:
            self._structures.move_to_end(signature)
        self._totals["binds"] += 1
        kernel = SlotKernel(
            context=context,
            requests=requests,
            candidate_routes=candidate_routes,
            utility_weight=utility_weight,
            cost_weight=cost_weight,
            budget_cap=budget_cap,
            dual_tolerance=dual_tolerance,
            structure=structure,
        )
        self._last_kernel = kernel
        return kernel

    # ------------------------------------------------------------------ #
    # Stats & lifecycle
    # ------------------------------------------------------------------ #
    def _flush_last(self) -> None:
        kernel = self._last_kernel
        if kernel is None:
            return
        for key in STAT_KEYS:
            self._totals[key] += kernel.stats.get(key, 0)
        self._totals["evaluations"] += kernel.evaluations
        self._last_kernel = None

    def aggregate_stats(self) -> Dict[str, int]:
        """Horizon totals: binds, structure compiles, solves, cache hits, …

        ``binds - structure_compiles`` is the number of *re-binds* — slots
        (or drop-retry iterations) that reused a compiled structure instead
        of recompiling it.
        """
        self._flush_last()
        totals = dict(self._totals)
        totals["rebinds"] = totals["binds"] - totals["structure_compiles"]
        return totals

    def reset(self) -> None:
        """Drop all structures, warm state and totals (fresh-run semantics)."""
        self._structures.clear()
        self._last_kernel = None
        for key in self._totals:
            self._totals[key] = 0
