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
* relax-and-round never beats the exact optimum (``repro.solvers.oracle``).
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
