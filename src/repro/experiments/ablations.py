"""Ablation studies (beyond the paper's figures).

Four design choices of the reproduction are checked explicitly:

* **Route selection** — the Gibbs sampler (Algorithm 3) versus exhaustive
  search on slots where exhaustive search is tractable: how close does
  Gibbs get to the exact per-slot optimum, and how many allocation solves
  does each need?
* **Per-slot solver** — the slot kernel's per-slot decisions (relaxation,
  rounding and route selection, as every run makes them) versus the exact
  optimum of each slot (:mod:`repro.solvers.oracle`).
* **Link model** — the analytic edge success probability ``P_e(n)`` of
  Eq. (1) versus an attempt-level Monte-Carlo estimate.
* **Policy line-up** — every policy in the :mod:`repro.api` registry
  (OSCAR, both myopic baselines, the unconstrained upper bound and the
  naive heuristic) on one short shared workload, to place the paper's
  three-way comparison in a wider context.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import api
from repro.core.per_slot import PerSlotSolver
from repro.core.problem import SlotContext
from repro.core.route_selection import ExhaustiveRouteSelector, GibbsRouteSelector
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.physics.entanglement import EntanglementGenerator
from repro.solvers.kernel import KernelCache
from repro.solvers.oracle import slot_optimum
from repro.utils.rng import SeedLike, as_generator, derive_seed


@dataclass
class RouteSelectionAblation:
    """Gibbs vs exhaustive route selection on tractable slots."""

    slots_compared: int
    mean_objective_gap: float
    max_objective_gap: float
    mean_gibbs_evaluations: float
    mean_exhaustive_evaluations: float

    def format_table(self) -> str:
        return format_table(
            ["metric", "value"],
            [
                ["slots compared", self.slots_compared],
                ["mean objective gap (exhaustive - gibbs)", self.mean_objective_gap],
                ["max objective gap", self.max_objective_gap],
                ["mean allocation solves (gibbs)", self.mean_gibbs_evaluations],
                ["mean allocation solves (exhaustive)", self.mean_exhaustive_evaluations],
            ],
            title="Ablation: Gibbs vs exhaustive route selection",
        )


@dataclass
class SolverAblation:
    """The per-slot solver against the exact per-slot optimum.

    ``instances`` counts the (slot, queue price) instances compared and
    ``combinations`` the route combinations the oracle solved exactly; the
    gaps are ``(optimum − solver) / |optimum|``.
    """

    instances: int
    combinations: int
    exact_fraction: float
    mean_relative_gap: float
    max_relative_gap: float

    def format_table(self) -> str:
        return format_table(
            ["metric", "value"],
            [
                ["slot instances", self.instances],
                ["route combinations solved exactly", self.combinations],
                ["fraction at the exact optimum", self.exact_fraction],
                ["mean relative objective gap", self.mean_relative_gap],
                ["max relative objective gap", self.max_relative_gap],
            ],
            title="Ablation: per-slot solver vs exact oracle",
        )


@dataclass
class LinkModelAblation:
    """Analytic Eq. (1) vs Monte-Carlo edge success probabilities."""

    channel_counts: List[int]
    analytic: List[float]
    monte_carlo: List[float]

    def max_absolute_error(self) -> float:
        return max(abs(a - m) for a, m in zip(self.analytic, self.monte_carlo))

    def format_table(self) -> str:
        rows = [
            [n, a, m, abs(a - m)]
            for n, a, m in zip(self.channel_counts, self.analytic, self.monte_carlo)
        ]
        return format_table(
            ["channels", "analytic P(n)", "monte-carlo", "abs error"],
            rows,
            title="Ablation: analytic edge success (Eq. 1) vs attempt-level Monte-Carlo",
        )


def _sample_contexts(
    config: ExperimentConfig, num_slots: int, seed: SeedLike
) -> List[SlotContext]:
    """Draw a handful of per-slot contexts from the configured workload."""
    rng = as_generator(seed)
    graph = config.build_graph(seed=derive_seed(config.base_seed, "ablation-graph"))
    trace = config.build_trace(graph, seed=derive_seed(config.base_seed, "ablation-trace"))
    contexts = []
    for slot_trace in trace.slots[:num_slots]:
        contexts.append(
            SlotContext(
                t=slot_trace.t,
                graph=graph,
                snapshot=slot_trace.snapshot,
                requests=slot_trace.requests,
                candidate_routes={
                    request: tuple(trace.routes_for(request))
                    for request in slot_trace.requests
                },
            )
        )
    return contexts


def run_route_selection_ablation(
    config: Optional[ExperimentConfig] = None,
    num_slots: int = 10,
    seed: int = 7,
) -> RouteSelectionAblation:
    """Compare Gibbs against exhaustive search on a few tractable slots."""
    config = config or ExperimentConfig.small()
    contexts = _sample_contexts(config, num_slots, seed)
    exhaustive = ExhaustiveRouteSelector()
    gibbs = GibbsRouteSelector(
        gamma=config.gamma, iterations=config.gibbs_iterations
    )
    gaps: List[float] = []
    gibbs_evaluations: List[int] = []
    exhaustive_evaluations: List[int] = []
    rng = as_generator(seed)
    for context in contexts:
        requests = list(context.servable_requests())
        if not requests:
            continue
        combos = exhaustive.combination_count(context, requests)
        if combos > 256:
            continue
        exact = exhaustive.select(
            context, requests, utility_weight=config.trade_off_v, cost_weight=10.0
        )
        sampled = gibbs.select(
            context, requests, utility_weight=config.trade_off_v, cost_weight=10.0, seed=rng
        )
        if not exact.feasible or not sampled.feasible:
            continue
        gaps.append(exact.objective - sampled.objective)
        gibbs_evaluations.append(sampled.evaluations)
        exhaustive_evaluations.append(exact.evaluations)
    if not gaps:
        raise RuntimeError("no comparable slots found for the route-selection ablation")
    return RouteSelectionAblation(
        slots_compared=len(gaps),
        mean_objective_gap=float(np.mean(gaps)),
        max_objective_gap=float(np.max(gaps)),
        mean_gibbs_evaluations=float(np.mean(gibbs_evaluations)),
        mean_exhaustive_evaluations=float(np.mean(exhaustive_evaluations)),
    )


#: Queue prices ``q`` of the solver ablation: a drained queue, the paper's
#: initial queue and a long one.
QUEUE_PRICES = (0.0, 10.0, 50.0)


def run_solver_ablation(
    config: Optional[ExperimentConfig] = None,
    num_slots: int = 40,
    seed: int = 11,
) -> SolverAblation:
    """Measure the per-slot solver's distance from the exact slot optimum.

    Every sampled slot the solver searches exhaustively (at most
    ``exhaustive_limit`` route combinations) is solved at ``V =
    trade_off_v`` under each of :data:`QUEUE_PRICES` by a fresh
    :class:`~repro.core.per_slot.PerSlotSolver`, as in a run, and by the
    oracle, which solves every combination as an exact integer program.  The
    gap is then the kernel's relax-and-round loss alone (Gibbs sampling's
    own loss is the route-selection ablation's subject).  Instances where
    the solver had to drop requests are skipped: it then answered a smaller
    problem.
    """
    config = config or ExperimentConfig.small()
    contexts = _sample_contexts(config, num_slots, seed)
    gaps: List[float] = []
    combinations = 0
    for context in contexts:
        requests = list(context.servable_requests())
        count = int(np.prod([len(context.routes_for(r)) for r in requests]))
        if not requests or count > config.exhaustive_limit:
            continue
        for price in QUEUE_PRICES:
            solver = PerSlotSolver(
                exhaustive_limit=config.exhaustive_limit,
                gamma=config.gamma,
                gibbs_iterations=config.gibbs_iterations,
                dual_tolerance=config.dual_tolerance,
            )
            solution = solver.solve(
                context, utility_weight=config.trade_off_v, cost_weight=price,
                seed=derive_seed(seed, "solver-ablation", context.t),
            )
            if solution.dropped_requests:
                continue
            kernel = KernelCache().bind(
                context, requests, [list(context.routes_for(r)) for r in requests],
                utility_weight=config.trade_off_v, cost_weight=price,
            )
            _, exact = slot_optimum(kernel)
            combinations += count
            reference = max(abs(exact.objective), 1e-9)
            gaps.append(max(exact.objective - solution.objective, 0.0) / reference)
    if not gaps:
        raise RuntimeError("no comparable instances found for the solver ablation")
    return SolverAblation(
        instances=len(gaps),
        combinations=combinations,
        exact_fraction=float(np.mean([gap <= 1e-9 for gap in gaps])),
        mean_relative_gap=float(np.mean(gaps)),
        max_relative_gap=float(np.max(gaps)),
    )


def run_link_model_ablation(
    attempt_success: float = 2.0e-4,
    attempts_per_slot: int = 4000,
    channel_counts: Tuple[int, ...] = (1, 2, 3, 4, 6),
    trials: int = 20000,
    seed: int = 13,
) -> LinkModelAblation:
    """Validate Eq. (1) against attempt-level Monte-Carlo sampling."""
    generator = EntanglementGenerator(
        attempt_success=attempt_success, attempts_per_slot=attempts_per_slot
    )
    analytic = [generator.edge_success_probability(n) for n in channel_counts]
    monte_carlo = [
        generator.empirical_success_rate(n, trials=trials, seed=derive_seed(seed, n))
        for n in channel_counts
    ]
    return LinkModelAblation(
        channel_counts=list(channel_counts),
        analytic=analytic,
        monte_carlo=monte_carlo,
    )


@dataclass
class PolicyLineupAblation:
    """Every registered policy on one short shared workload."""

    record: "api.RunRecord" = field(repr=False)

    def format_table(self) -> str:
        summary = self.record.summary()
        rows = []
        for name, metrics in summary.items():
            rows.append(
                [
                    name,
                    metrics["average_success_rate"].mean,
                    metrics["total_cost"].mean,
                    metrics["budget_violation"].mean,
                    metrics["served_fraction"].mean,
                ]
            )
        return format_table(
            ["policy", "success_rate", "total_cost", "violation", "served"],
            rows,
            title="Ablation: full policy-registry line-up (short shared workload)",
        )


def run_policy_lineup_ablation(
    config: Optional[ExperimentConfig] = None,
    max_horizon: int = 10,
    seed: int = 17,
    workers: int = 1,
) -> PolicyLineupAblation:
    """Compare every policy in the default registry through the study layer.

    The horizon is capped so the ablation stays cheap even at paper scale;
    the line-up is whatever :func:`repro.api.available_policies` reports,
    so user-registered policies automatically join the table.  Expressed as
    a degenerate (zero-axis) :class:`~repro.api.study.Study` so the single
    point still fans its policy × trial units across the worker pool.
    """
    config = config or ExperimentConfig.small()
    scenario = (
        api.Scenario.from_config(config, name="ablation/lineup")
        .with_workload(horizon=min(config.horizon, max_horizon))
        .with_trials(1)
        .with_seed(seed)
        .with_policies(*api.available_policies())
    )
    result = api.Study("ablation/lineup").base(scenario).run(workers=workers)
    return PolicyLineupAblation(record=result.records[0])


@dataclass
class AblationReport:
    """All four ablations of one run, formattable as text or JSON."""

    route_selection: RouteSelectionAblation
    solver: SolverAblation
    link_model: LinkModelAblation
    lineup: PolicyLineupAblation

    def format_tables(self) -> str:
        """The combined plain-text report (all four ablation tables)."""
        return "\n\n".join(
            [
                self.route_selection.format_table(),
                self.solver.format_table(),
                self.link_model.format_table(),
                self.lineup.format_table(),
            ]
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON payload; the line-up section uses the RunRecord schema."""
        return {
            "figure": "ablations",
            "route_selection": dataclasses.asdict(self.route_selection),
            "solver": dataclasses.asdict(self.solver),
            "link_model": dataclasses.asdict(self.link_model),
            "lineup": self.lineup.record.to_dict(),
        }


def run_all_report(
    config: Optional[ExperimentConfig] = None, workers: int = 1
) -> AblationReport:
    """Run every ablation and return the structured report."""
    config = config or ExperimentConfig.small()
    return AblationReport(
        route_selection=run_route_selection_ablation(config),
        solver=run_solver_ablation(config),
        link_model=run_link_model_ablation(),
        lineup=run_policy_lineup_ablation(config, workers=workers),
    )


def run_all(config: Optional[ExperimentConfig] = None, workers: int = 1) -> str:
    """Run every ablation and return the combined plain-text report."""
    return run_all_report(config, workers=workers).format_tables()


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_all())


if __name__ == "__main__":  # pragma: no cover
    main()
