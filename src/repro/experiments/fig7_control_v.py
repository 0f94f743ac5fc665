"""Figure 7 — impact of the Lyapunov control parameter V.

The paper varies V and reports the achieved entanglement utility and the
qubit usage (relative to the budget): a larger V yields a higher utility
but a larger budget violation, exactly as Theorems 1 and 2 predict.  We
reproduce the sweep for OSCAR only (the baselines do not have a V) and also
print the theoretical Theorem-1 violation bound next to the measurement.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.theory import (
    delta_optimality_gap,
    drift_constant_bound,
    theorem1_violation_bound,
)
from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series_table

#: V sweep used at paper scale (the paper's default is V = 2500).
PAPER_V_VALUES = (500.0, 1000.0, 2500.0, 5000.0, 10000.0)


@dataclass
class Figure7Result:
    """Utility, qubit usage and budget violation as a function of V."""

    config: ExperimentConfig
    v_values: List[float]
    average_utility: List[float]
    average_success_rate: List[float]
    total_cost: List[float]
    budget_violation: List[float]
    theorem1_bounds: List[float]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig7",
            "config": dataclasses.asdict(self.config),
            "v_values": list(self.v_values),
            "average_utility": list(self.average_utility),
            "average_success_rate": list(self.average_success_rate),
            "total_cost": list(self.total_cost),
            "budget_violation": list(self.budget_violation),
            "theorem1_bounds": list(self.theorem1_bounds),
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def format_tables(self) -> str:
        """The Fig. 7 sweep as a plain-text table."""
        return format_series_table(
            "V",
            self.v_values,
            {
                "avg_utility": self.average_utility,
                "avg_success_rate": self.average_success_rate,
                "total_qubit_usage": self.total_cost,
                "budget_violation": self.budget_violation,
                "thm1_violation_bound(avg/slot)": self.theorem1_bounds,
            },
            title=(
                "Fig. 7 Impact of the control parameter V "
                f"(budget C={self.config.total_budget:g}, T={self.config.horizon})"
            ),
        )


def build_study(
    config: ExperimentConfig, v_values: Sequence[float], name: str = "fig7"
) -> "api.Study":
    """The declarative form of the Fig. 7 sweep (OSCAR only, one V axis)."""
    return (
        api.Study(name)
        .base(api.Scenario.from_config(config, name=name).with_policies("oscar"))
        .over("budget.trade_off_v", [float(v) for v in v_values], label="V")
    )


def run(
    config: Optional[ExperimentConfig] = None,
    v_values: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure7Result:
    """Sweep V for OSCAR and collect utility / usage / violation."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    if v_values is None:
        scale = config.trade_off_v / 2500.0
        v_values = [v * scale for v in PAPER_V_VALUES]
    v_values = [float(v) for v in v_values]

    study_result = build_study(config, v_values).run(workers=workers, store=store)
    average_utility = study_result.series("average_utility")["OSCAR"]
    average_success = study_result.series("average_success_rate")["OSCAR"]
    total_cost = study_result.series("total_cost")["OSCAR"]
    violation = study_result.series("budget_violation")["OSCAR"]

    bounds: List[float] = []
    for v, record in zip(v_values, study_result.records):
        swept = config.with_overrides(trade_off_v=v)

        # Theoretical Theorem-1 bound for this V (an upper bound on the
        # *time-averaged* violation, reported per slot).
        results = record.results_for("OSCAR")
        max_slot_cost = max(
            (max(result.per_slot_costs()) if result.records else 0.0) for result in results
        )
        max_pairs = swept.max_pairs
        max_hops = 6
        p_min = 0.3
        try:
            delta = delta_optimality_gap(v, max_pairs, max_hops, p_min)
            bound = theorem1_violation_bound(
                horizon=swept.horizon,
                initial_queue=swept.initial_queue,
                trade_off_v=v,
                max_pairs=max_pairs,
                max_route_length=max_hops,
                min_slot_success=p_min,
                drift_constant=drift_constant_bound(max_slot_cost, swept.per_slot_budget),
                delta=delta,
            )
        except ValueError:
            bound = float("nan")
        bounds.append(bound)

    return Figure7Result(
        config=config,
        v_values=v_values,
        average_utility=average_utility,
        average_success_rate=average_success,
        total_cost=total_cost,
        budget_violation=violation,
        theorem1_bounds=bounds,
        study=study_result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small(), trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
