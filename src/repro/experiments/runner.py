"""Multi-trial experiment runner.

The paper reports averages over 5 independent trials.  A trial consists of
sampling one topology and one workload trace, then running every policy on
that identical trace.  :func:`run_comparison` performs the trials and
returns a :class:`ComparisonResult` from which the figure modules extract
their series and tables.

.. deprecated::
    :func:`run_comparison` is now a thin shim over the :mod:`repro.api`
    facade (``repro.api.compare`` / ``Scenario`` / ``Session``), kept so
    existing imports and result handling continue to work.  New code should
    use the facade directly — it adds named policies, parallel trial
    execution and streaming events.  :class:`ComparisonResult` remains the
    canonical aggregation helper and is what
    :meth:`repro.api.records.RunRecord.to_comparison` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis.metrics import result_fairness
from repro.analysis.stats import TrialAggregate, aggregate_scalar, aggregate_series
from repro.core.policy import RoutingPolicy
from repro.experiments.config import ExperimentConfig
from repro.simulation.results import SimulationResult

PolicyFactory = Callable[[ExperimentConfig], Sequence[RoutingPolicy]]

#: The headline metrics every summary reports, in table order.
SUMMARY_METRICS = (
    "average_utility",
    "average_success_rate",
    "realized_success_rate",
    "total_cost",
    "budget_utilisation",
    "budget_violation",
    "served_fraction",
    "fairness",
    "delivered_success_rate",
    "mean_delivered_fidelity",
    "fidelity_served_rate",
)

#: The subset of :data:`SUMMARY_METRICS` that only exists when a run
#: simulated the physical layer; absent (not zero) otherwise.
PHYSICAL_SUMMARY_METRICS = (
    "delivered_success_rate",
    "mean_delivered_fidelity",
    "fidelity_served_rate",
)


@dataclass
class ComparisonResult:
    """Results of every policy over every trial of one experiment."""

    config: ExperimentConfig
    trials: List[Dict[str, SimulationResult]] = field(default_factory=list)

    @property
    def policy_names(self) -> List[str]:
        """Names of the compared policies (order of the first trial)."""
        if not self.trials:
            return []
        return list(self.trials[0].keys())

    def results_for(self, policy_name: str) -> List[SimulationResult]:
        """All trial results of one policy."""
        return [trial[policy_name] for trial in self.trials]

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate_metric(
        self, policy_name: str, metric: Callable[[SimulationResult], float]
    ) -> TrialAggregate:
        """Aggregate an arbitrary scalar metric of one policy across trials."""
        return aggregate_scalar([metric(result) for result in self.results_for(policy_name)])

    def summary(self) -> Dict[str, Dict[str, TrialAggregate]]:
        """Mean ± CI of the headline metrics for every policy.

        The metric names are :data:`SUMMARY_METRICS`; the
        :data:`PHYSICAL_SUMMARY_METRICS` subset is reported only for
        policies whose runs simulated the physical layer (absence means
        "not simulated", a different statement than a measured zero, and
        keeps legacy report text unchanged for physical-free runs).
        """
        metrics: Dict[str, Callable[[SimulationResult], float]] = {
            "average_utility": lambda r: r.average_utility(),
            "average_success_rate": lambda r: r.average_success_rate(),
            "realized_success_rate": lambda r: r.realized_success_rate(),
            "total_cost": lambda r: r.total_cost,
            "budget_utilisation": lambda r: r.budget_utilisation,
            "budget_violation": lambda r: r.budget_violation,
            "served_fraction": lambda r: r.served_fraction(),
            "fairness": result_fairness,
        }
        physical_metrics: Dict[str, Callable[[SimulationResult], float]] = {
            "delivered_success_rate": lambda r: r.delivered_success_rate(),
            "mean_delivered_fidelity": lambda r: r.mean_delivered_fidelity(),
            "fidelity_served_rate": lambda r: r.fidelity_served_rate(),
        }
        assert set(metrics) | set(physical_metrics) == set(SUMMARY_METRICS)
        assert set(physical_metrics) == set(PHYSICAL_SUMMARY_METRICS)
        summaries: Dict[str, Dict[str, TrialAggregate]] = {}
        for name in self.policy_names:
            selected = dict(metrics)
            if any(result.has_physical_data for result in self.results_for(name)):
                selected.update(physical_metrics)
            summaries[name] = {
                metric_name: self.aggregate_metric(name, metric)
                for metric_name, metric in selected.items()
            }
        return summaries

    def mean_series(self, policy_name: str, kind: str) -> List[float]:
        """Across-trial mean of a per-slot series of one policy.

        ``kind`` is one of ``"running_utility"``, ``"running_success"``,
        ``"cumulative_cost"`` or ``"queue_length"``.
        """
        extractors = {
            "running_utility": lambda r: r.running_average_utility(),
            "running_success": lambda r: r.running_average_success_rate(),
            "cumulative_cost": lambda r: r.cumulative_costs(),
            "per_slot_cost": lambda r: [float(c) for c in r.per_slot_costs()],
        }
        if kind not in extractors:
            raise ValueError(f"unknown series kind {kind!r}")
        series = [extractors[kind](result) for result in self.results_for(policy_name)]
        means, _ = aggregate_series(series)
        return means

    def success_probability_pool(self, policy_name: str) -> List[float]:
        """All per-request success probabilities of a policy, pooled over trials."""
        pool: List[float] = []
        for result in self.results_for(policy_name):
            pool.extend(result.all_success_probabilities(include_unserved=True))
        return pool


def run_comparison(
    config: ExperimentConfig,
    policy_factory: Optional[PolicyFactory] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> ComparisonResult:
    """Run the multi-trial comparison defined by ``config``.

    Every trial draws a fresh topology and workload trace; every policy runs
    on the identical trace within a trial.  ``policy_factory`` may replace
    the default OSCAR/MA/MF line-up (it is called once per trial so that
    policies start from clean state).  ``workers > 1`` executes trials in a
    process pool with bit-identical results (the line-up must be picklable).

    This is a compatibility shim over :mod:`repro.api` — see the module
    docstring.
    """
    # Imported lazily: repro.api is a higher layer that itself consumes
    # ComparisonResult from this module.
    from repro.api import Scenario, Session

    overrides = {}
    if trials is not None:
        overrides["trials"] = int(trials)
    if seed is not None:
        overrides["base_seed"] = int(seed)
    run_config = config.with_overrides(**overrides) if overrides else config

    scenario = Scenario.from_config(run_config, name="comparison")
    if policy_factory is not None:
        scenario = scenario.with_lineup_factory(policy_factory)
    record = Session(workers=workers, stream_slots=False).run(scenario)
    # Preserve the caller's config object (including any trials/seed
    # overrides applied above) rather than a deserialised copy.
    return ComparisonResult(
        config=run_config, trials=[dict(trial) for trial in record.trials]
    )
