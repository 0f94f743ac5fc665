"""Tests for the compiled slot kernel (repro.solvers.kernel).

Every per-slot solve runs on the kernel, bound through
:meth:`~repro.solvers.kernel.KernelCache.bind`.  These tests pin its two
modes against each other and against the exact oracle:

* the **adaptive mode** (warm-started dual solves + duality-gap early stop,
  the default) produces the same :class:`SlotDecision`\\ s as **replay
  mode** (``dual_tolerance=0``, the fixed schedule) on randomised instances;
* warm-start state never leaks across combinations in a way that changes
  integer outcomes;
* **replay mode** still reproduces the removed legacy object path, whose
  per-combination outcomes were recorded before its removal;
* relax-and-round never beats the exact optimum (``repro.solvers.oracle``);
* a combination compiled from its route blocks equals the eager,
  all-fields compile (:func:`reference_combo_fields`) field for field, and
  one that enumeration prunes builds none of its matrices.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.per_slot import PerSlotSolver
from repro.core.problem import SlotContext
from repro.core.route_selection import ExhaustiveRouteSelector, GibbsRouteSelector
from repro.experiments.config import ExperimentConfig
from repro.solvers import kernel as kernel_module
from repro.solvers.kernel import DEFAULT_DUAL_TOLERANCE, KernelCache, SlotKernel
from repro.solvers.oracle import combination_optimum

from conftest import bind_kernel


def make_context(graph_seed: int, trace_seed: int, min_requests: int = 2) -> SlotContext:
    """A slot context sampled from a real (small) topology and trace."""
    config = ExperimentConfig(
        num_nodes=9, horizon=10, total_budget=400.0, trials=1, max_pairs=4,
        gibbs_iterations=15, num_candidate_routes=3, base_seed=2024,
    )
    graph = config.build_graph(seed=graph_seed)
    trace = config.build_trace(graph, seed=trace_seed)
    for t in range(trace.horizon):
        slot = trace.slot(t)
        if slot.num_requests >= min_requests:
            return SlotContext(
                t=slot.t, graph=graph, snapshot=slot.snapshot,
                requests=slot.requests,
                candidate_routes={r: trace.routes_for(r) for r in slot.requests},
            )
    raise AssertionError("no slot with enough requests in the sampled trace")


def request_candidates(context: SlotContext):
    requests = list(context.servable_requests())
    candidates = [list(context.routes_for(r)) for r in requests]
    return requests, candidates


WEIGHT_SETTINGS = [
    (2500.0, 10.0, None),     # OSCAR: V large, queue price, no cap
    (2500.0, 150.0, None),    # OSCAR under a long queue
    (1.0, 0.0, 20.0),         # myopic baseline: per-slot budget cap
    (1.0, 0.0, None),         # unconstrained per-slot utility
]


class TestKernelOptions:
    def test_defaults(self):
        assert kernel_module.DUAL_ITERATIONS == 150
        assert kernel_module.POLISH_ROUNDS == 2
        assert kernel_module.MAX_STRUCTURES == 4
        kernel = bind_kernel(make_context(1, 51))
        assert kernel._dual_tolerance == DEFAULT_DUAL_TOLERANCE
        assert kernel.adaptive

    def test_validation(self):
        with pytest.raises(ValueError):
            bind_kernel(make_context(1, 51), dual_tolerance=-1.0)

    def test_replay_tolerance_disables_warm_start(self):
        # dual_tolerance=0 promises the fixed schedule from zero multipliers,
        # which a warm multiplier seed (or a KKT shortcut) would break.
        assert bind_kernel(make_context(1, 51), dual_tolerance=0.0).adaptive is False


class TestEvaluatorSelection:
    def test_kernel_selected_by_default(self):
        context = make_context(1, 51)
        kernel = bind_kernel(context)
        assert isinstance(kernel, SlotKernel)
        assert kernel._dual_tolerance == DEFAULT_DUAL_TOLERANCE


class TestPerSlotSolverConstruction:
    def test_exhaustive_only_accepts_gibbs_incompatible_parameters(self):
        # The Gibbs selector is built lazily, so exhaustive-only
        # configurations keep working with parameters its validation rejects.
        context = make_context(1, 51, min_requests=1)
        solver = PerSlotSolver(selector_mode="exhaustive", gamma=0.0)
        solution = solver.solve(context, utility_weight=1.0, seed=3)
        assert solution.used_exhaustive


LEGACY_OUTCOMES = json.loads(
    (Path(__file__).parent / "data" / "removed_paths" / "legacy_outcomes.json").read_text()
)


def legacy_outcome(key: str) -> dict:
    """The removed legacy object path's outcome, recorded before its removal."""
    return LEGACY_OUTCOMES[key]


def assert_matches_legacy(fast, legacy: dict) -> None:
    assert fast.feasible == legacy["feasible"]
    assert list(fast.allocation.values()) == legacy["allocation"]
    assert fast.objective == pytest.approx(legacy["objective"], abs=1e-9)
    assert fast.cost == legacy["cost"]
    if legacy["relaxed"] is not None:
        assert np.allclose(
            np.asarray(fast.relaxed_solution.values),
            np.asarray(legacy["relaxed"]),
            atol=1e-9,
        )


class TestReplayModeMatchesLegacyExactly:
    """``dual_tolerance=0`` reproduces the removed legacy dual-decomposition
    path, as recorded in ``tests/data/removed_paths/legacy_outcomes.json``."""

    def test_public_compile_path_is_exact(self):
        # KernelCache.bind with dual_tolerance=0 is all a caller sets: replay
        # mode itself switches the warm start off.
        context = make_context(1, 51)
        requests, candidates = request_candidates(context)
        sizes = [len(c) for c in candidates]
        kernel = KernelCache().bind(
            context, requests, candidates, 2500.0, 10.0, dual_tolerance=0.0
        )
        for assignment in itertools.islice(
            itertools.product(*[range(s) for s in sizes]), 6
        ):
            key = "1-51/0/" + ",".join(map(str, assignment))
            assert_matches_legacy(kernel.outcome_for(assignment), legacy_outcome(key))

    @pytest.mark.parametrize("graph_seed,trace_seed", [(1, 51), (2, 52), (3, 53)])
    def test_every_combination_matches(self, graph_seed, trace_seed):
        context = make_context(graph_seed, trace_seed)
        requests, candidates = request_candidates(context)
        sizes = [len(c) for c in candidates]
        for index, (V, q, cap) in enumerate(WEIGHT_SETTINGS):
            kernel = bind_kernel(context, V, q, budget_cap=cap, dual_tolerance=0.0)
            for assignment in itertools.islice(
                itertools.product(*[range(s) for s in sizes]), 8
            ):
                key = f"{graph_seed}-{trace_seed}/{index}/" + ",".join(map(str, assignment))
                assert_matches_legacy(kernel.outcome_for(assignment), legacy_outcome(key))


class TestAdaptiveModeDecisions:
    """Warm start + early stop leave the per-slot decisions of replay mode unchanged."""

    @pytest.mark.parametrize("graph_seed", [0, 1, 2, 3])
    def test_per_slot_decisions_identical(self, graph_seed):
        context = make_context(graph_seed, graph_seed + 50, min_requests=1)
        for V, q, cap in [(2500.0, 10.0, None), (1.0, 0.0, 20.0)]:
            fast = PerSlotSolver().solve(
                context, utility_weight=V, cost_weight=q, budget_cap=cap, seed=42
            )
            slow = PerSlotSolver(dual_tolerance=0.0).solve(
                context, utility_weight=V, cost_weight=q, budget_cap=cap, seed=42
            )
            assert fast.decision.num_served == slow.decision.num_served
            assert set(fast.decision.unserved) == set(slow.decision.unserved)
            assert dict(fast.decision.selection) == dict(slow.decision.selection)
            assert dict(fast.decision.allocation) == dict(slow.decision.allocation)
            assert fast.objective == pytest.approx(slow.objective, abs=1e-9)

    def test_selector_paths_agree(self):
        context = make_context(2, 52)
        for selector_fast, selector_slow in [
            (
                ExhaustiveRouteSelector(),
                ExhaustiveRouteSelector(dual_tolerance=0.0),
            ),
            (
                GibbsRouteSelector(iterations=25),
                GibbsRouteSelector(iterations=25, dual_tolerance=0.0),
            ),
        ]:
            fast = selector_fast.select(context, context.servable_requests(), 2500.0, 10.0, seed=7)
            slow = selector_slow.select(context, context.servable_requests(), 2500.0, 10.0, seed=7)
            assert dict(fast.selection) == dict(slow.selection)
            assert dict(fast.outcome.allocation) == dict(slow.outcome.allocation)
            assert fast.objective == pytest.approx(slow.objective, abs=1e-9)
            if isinstance(selector_fast, GibbsRouteSelector):
                assert fast.evaluations == slow.evaluations
            else:
                # Adaptive enumeration prunes combinations by dual bound;
                # replay mode evaluates all of them.
                assert fast.evaluations <= slow.evaluations


class TestWarmStartState:
    def test_outcomes_do_not_depend_on_evaluation_order(self):
        context = make_context(1, 51)
        requests, candidates = request_candidates(context)
        sizes = [len(c) for c in candidates]
        combos = list(itertools.islice(
            itertools.product(*[range(s) for s in sizes]), 6
        ))
        forward = bind_kernel(context, 2500.0, 10.0)
        backward = bind_kernel(context, 2500.0, 10.0)
        outcomes_f = {a: forward.outcome_for(a) for a in combos}
        outcomes_b = {a: backward.outcome_for(a) for a in reversed(combos)}
        for a in combos:
            assert outcomes_f[a].allocation == outcomes_b[a].allocation
            assert outcomes_f[a].objective == pytest.approx(
                outcomes_b[a].objective, abs=1e-9
            )

    def test_early_stops_engage_on_revisits(self):
        context = make_context(1, 51)
        requests, candidates = request_candidates(context)
        sizes = [len(c) for c in candidates]
        kernel = bind_kernel(context, 2500.0, 10.0)
        for assignment in itertools.islice(
            itertools.product(*[range(s) for s in sizes]), 8
        ):
            kernel.outcome_for(assignment)
        assert kernel.stats["early_stops"] > 0
        # Far fewer subgradient steps than the fixed 150-per-solve budget.
        assert kernel.stats["dual_iterations"] < 150 * kernel.stats["solves"] / 2

    def test_cache_counts_distinct_solves(self):
        context = make_context(1, 51)
        requests, candidates = request_candidates(context)
        kernel = bind_kernel(context, 2500.0, 10.0)
        a = tuple(0 for _ in requests)
        first = kernel.outcome_for(a)
        second = kernel.outcome_for(a)
        assert first is second
        assert kernel.evaluations == 1
        assert kernel.stats["cache_hits"] == 1


class TestKernelEdgeCases:
    def test_infeasible_budget_cap_matches_legacy(self):
        context = make_context(1, 51)
        requests, _ = request_candidates(context)
        # A cap below one channel per edge makes every combination infeasible.
        kernel = bind_kernel(context, 1.0, 0.0, budget_cap=1.0)
        assignment = tuple(0 for _ in requests)
        fast = kernel.outcome_for(assignment)
        legacy = legacy_outcome("1-51/cap-1/" + ",".join("0" for _ in requests))
        assert not fast.feasible and not legacy["feasible"]
        assert list(fast.allocation.values()) == legacy["allocation"]
        assert kernel.objective(assignment) == float("-inf")

    def test_infeasible_budget_cap_matches_oracle(self):
        context = make_context(1, 51)
        requests, _ = request_candidates(context)
        kernel = bind_kernel(context, 1.0, 0.0, budget_cap=1.0)
        assignment = tuple(0 for _ in requests)
        exact = combination_optimum(kernel, assignment)
        assert not exact.feasible
        assert kernel.objective(assignment) == exact.objective == float("-inf")

    def test_validates_weights(self):
        context = make_context(1, 51)
        requests, candidates = request_candidates(context)
        with pytest.raises(ValueError):
            KernelCache().bind(context, requests, candidates, utility_weight=-1.0)
        with pytest.raises(ValueError):
            KernelCache().bind(context, requests, candidates, cost_weight=-0.5)
        with pytest.raises(ValueError):
            KernelCache().bind(context, requests, candidates, budget_cap=-2.0)

    def test_selection_for_maps_routes(self):
        context = make_context(1, 51)
        requests, candidates = request_candidates(context)
        kernel = bind_kernel(context)
        assignment = tuple(0 for _ in requests)
        selection = kernel.selection_for(assignment)
        assert selection == {r: candidates[i][0] for i, r in enumerate(requests)}


def reference_combo_fields(blocks, budget_row) -> dict:
    """Every field of a combination, compiled eagerly with Python row maps.

    The reference the kernel's compile (block arrays concatenated, matrices
    built on first read) must equal, field for field and dtype for dtype.
    """
    n = sum(block.hops for block in blocks)
    p = np.concatenate([block.p for block in blocks])
    p_list = [float(v) for block in blocks for v in block.p]
    triples = np.vstack([block.rows[:, :3] for block in blocks])

    # Active constraints: nodes by first touch, then edges, then the budget.
    seen_nodes = {}
    seen_edges = {}
    for u_row, v_row, e_row in triples.tolist():
        if u_row not in seen_nodes:
            seen_nodes[u_row] = None
        if v_row not in seen_nodes:
            seen_nodes[v_row] = None
        if e_row not in seen_edges:
            seen_edges[e_row] = None
    order = list(seen_nodes) + list(seen_edges)
    if budget_row is not None:
        order.append(budget_row)
    m = len(order)

    local = {row: i for i, row in enumerate(order)}
    rows_local = np.asarray(
        [local[int(row)] for row in triples.ravel()], dtype=np.intp
    ).reshape(triples.shape)
    if budget_row is not None:
        rows_local = np.hstack([rows_local, np.full((n, 1), m - 1, dtype=np.intp)])
    width = rows_local.shape[1]

    membership = np.zeros((m, n), dtype=float)
    membership[rows_local.ravel(), np.repeat(np.arange(n), width)] = 1.0
    degenerate = (p <= 0.0) | (p >= 1.0)
    return {
        "n": n,
        "m": m,
        "p": p,
        "p_list": p_list,
        "fast_path": not bool(np.any(degenerate)),
        "order_array": np.asarray(order, dtype=np.intp),
        "rows_local": rows_local,
        "membership": membership,
        "membership_t": membership.T.copy(),
        "var_rows": [rows_local[i] for i in range(n)],
        "row_members": [np.nonzero(membership[r])[0] for r in range(m)],
        "lower": np.ones(n, dtype=float),
        "lower_loads": membership.sum(axis=1),
        "a": -np.log1p(-np.clip(p, 0.0, 1.0 - 1e-15)),
        "neg_log1p": np.log1p(-p),
    }


#: The fields a combination builds on first read.
LAZY_COMBO_FIELDS = (
    "membership", "membership_t", "row_members", "var_rows",
    "lower", "a", "neg_log1p", "p_list",
)


def assert_identical(actual, expected, name: str) -> None:
    """Equal type, dtype, shape, strides and bits (element-wise for lists)."""
    assert type(actual) is type(expected), name
    if isinstance(expected, list):
        assert len(actual) == len(expected), name
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_identical(a, e, f"{name}[{index}]")
    elif isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        assert actual.strides == expected.strides, name
        assert actual.tobytes() == expected.tobytes(), name
    else:
        assert actual == expected, name


def small_contexts(count: int = 3, min_requests: int = 3):
    """The first ``count`` slots of a ``small`` trace with enough requests."""
    config = ExperimentConfig.small()
    graph = config.build_graph(seed=7)
    trace = config.build_trace(graph, seed=8)
    contexts = []
    for t in range(trace.horizon):
        slot = trace.slot(t)
        if slot.num_requests >= min_requests:
            contexts.append(SlotContext(
                t=slot.t, graph=graph, snapshot=slot.snapshot,
                requests=slot.requests,
                candidate_routes={r: trace.routes_for(r) for r in slot.requests},
            ))
        if len(contexts) == count:
            return contexts
    raise AssertionError("not enough slots with enough requests in the sampled trace")


def every_assignment(kernel):
    return list(itertools.product(*[range(size) for size in kernel.sizes]))


class TestComboCompile:
    """The block-concatenating compile equals the eager reference exactly."""

    @pytest.mark.parametrize("budget_cap", [None, 20.0], ids=["no-budget", "budget"])
    def test_every_combination_matches_reference(self, budget_cap):
        checked = 0
        for context in small_contexts():
            requests, _ = request_candidates(context)
            # The first request twice: its combinations repeat a route block.
            for bound in (requests, [requests[0]] + requests):
                kernel = bind_kernel(
                    context, 1.0, 0.0, budget_cap=budget_cap, requests=bound
                )
                structure = kernel._structure
                budget_row = None if budget_cap is None else structure.budget_row
                for assignment in every_assignment(kernel):
                    blocks = [kernel._blocks[i][c] for i, c in enumerate(assignment)]
                    _, combo, _ = structure.combo_for(blocks, budget_cap is not None)
                    expected = reference_combo_fields(blocks, budget_row)
                    assert set(expected) == {
                        name.lstrip("_") for name in type(combo).__slots__
                    }
                    for name, value in expected.items():
                        assert_identical(getattr(combo, name), value, name)
                    checked += 1
        assert checked > 100

    def test_pruned_combinations_build_no_matrix(self):
        for context in small_contexts():
            kernel = bind_kernel(context, 2500.0, 10.0)
            assignments = every_assignment(kernel)
            kernel.best_of(assignments)
            if kernel.stats["pruned"]:
                break
        else:
            raise AssertionError("no sampled slot pruned a combination")
        structure = kernel._structure
        finished = {a for a in assignments if a in kernel._cache}
        pruned = [a for a in assignments if a not in kernel._cache]
        assert len(pruned) == kernel.stats["pruned"]

        def combo_of(assignment):
            key = (tuple(kernel._blocks[i][c].index for i, c in enumerate(assignment)), False)
            return structure._combos[key]

        for assignment in pruned:
            combo = combo_of(assignment)
            assert all(getattr(combo, "_" + name) is None for name in LAZY_COMBO_FIELDS)
        assert any(combo_of(a)._membership is not None for a in finished)
