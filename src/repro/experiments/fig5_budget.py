"""Figure 5 — impact of the qubit budget C.

The paper sweeps the total budget and reports (a) the average EC success
rate and (b) the average qubit usage of OSCAR, MA and MF.  Findings to
reproduce: every method improves with a larger budget, OSCAR dominates at
every budget level, and the gap to the baselines *narrows* as the budget
grows (resources stop being the bottleneck).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series_table

#: Budget sweep used when reproducing the paper-scale experiment.
PAPER_BUDGETS = (3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0)


@dataclass
class Figure5Result:
    """Average success rate and qubit usage as a function of the budget."""

    config: ExperimentConfig
    budgets: List[float]
    success_rate: Dict[str, List[float]]
    total_cost: Dict[str, List[float]]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig5",
            "config": dataclasses.asdict(self.config),
            "budgets": list(self.budgets),
            "success_rate": {k: list(v) for k, v in self.success_rate.items()},
            "total_cost": {k: list(v) for k, v in self.total_cost.items()},
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def oscar_advantage(self, baseline: str = "MF") -> List[float]:
        """OSCAR-minus-baseline success-rate gap at each budget (should shrink)."""
        return [
            oscar - other
            for oscar, other in zip(self.success_rate["OSCAR"], self.success_rate[baseline])
        ]

    def format_tables(self) -> str:
        """Both panels of Fig. 5 as plain-text tables."""
        return "\n\n".join(
            [
                format_series_table(
                    "budget C",
                    self.budgets,
                    self.success_rate,
                    title="Fig. 5(a) Average EC success rate vs. budget",
                ),
                format_series_table(
                    "budget C",
                    self.budgets,
                    self.total_cost,
                    title="Fig. 5(b) Average total qubit usage vs. budget",
                ),
            ]
        )


def sweep_budgets_for(config: ExperimentConfig) -> List[float]:
    """The budget sweep, scaled to the configuration's default budget.

    At paper scale this is 3000…8000; for the scaled-down configurations the
    same relative range (0.6x to 1.6x the default budget) is used.
    """
    factors = [b / 5000.0 for b in PAPER_BUDGETS]
    return [round(config.total_budget * factor, 2) for factor in factors]


def build_study(
    config: ExperimentConfig, budgets: Sequence[float], name: str = "fig5"
) -> "api.Study":
    """The declarative form of the Fig. 5 sweep (one budget axis)."""
    return (
        api.Study(name)
        .base(api.Scenario.from_config(config, name=name))
        .over("budget.total_budget", [float(b) for b in budgets], label="C")
    )


def run(
    config: Optional[ExperimentConfig] = None,
    budgets: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure5Result:
    """Run the budget sweep and collect per-policy success rates and usage."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    budgets = list(budgets) if budgets is not None else sweep_budgets_for(config)

    result = build_study(config, budgets).run(workers=workers, store=store)
    return Figure5Result(
        config=config,
        budgets=[float(b) for b in budgets],
        success_rate=result.series("average_success_rate"),
        total_cost=result.series("total_cost"),
        study=result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small(), budgets=None, trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
