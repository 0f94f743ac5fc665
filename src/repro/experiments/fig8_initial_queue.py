"""Figure 8 — impact of the initial virtual-queue length q0.

The paper varies q0 and reports the entanglement utility and the qubit
usage: a larger q0 makes OSCAR conservative in early slots (less spending),
and a q0 that is *too* large hurts utility; a small positive q0 (the paper
uses 10 rather than the conventional 0) reduces spending with almost no
utility loss.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series_table

#: q0 sweep used at paper scale (the paper's default is q0 = 10).
PAPER_Q0_VALUES = (0.0, 10.0, 50.0, 100.0, 200.0)


@dataclass
class Figure8Result:
    """Utility and qubit usage as a function of the initial queue length q0."""

    config: ExperimentConfig
    q0_values: List[float]
    average_utility: List[float]
    average_success_rate: List[float]
    total_cost: List[float]
    early_cost: List[float]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig8",
            "config": dataclasses.asdict(self.config),
            "q0_values": list(self.q0_values),
            "average_utility": list(self.average_utility),
            "average_success_rate": list(self.average_success_rate),
            "total_cost": list(self.total_cost),
            "early_cost": list(self.early_cost),
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def format_tables(self) -> str:
        """The Fig. 8 sweep as a plain-text table."""
        return format_series_table(
            "q0",
            self.q0_values,
            {
                "avg_utility": self.average_utility,
                "avg_success_rate": self.average_success_rate,
                "total_qubit_usage": self.total_cost,
                "early_qubit_usage(first 10% slots)": self.early_cost,
            },
            title=(
                "Fig. 8 Impact of the initial virtual queue q0 "
                f"(V={self.config.trade_off_v:g}, C={self.config.total_budget:g})"
            ),
        )


def build_study(
    config: ExperimentConfig, q0_values: Sequence[float], name: str = "fig8"
) -> "api.Study":
    """The declarative form of the Fig. 8 sweep (OSCAR only, one q0 axis)."""
    return (
        api.Study(name)
        .base(api.Scenario.from_config(config, name=name).with_policies("oscar"))
        .over("budget.initial_queue", [float(q) for q in q0_values], label="q0")
    )


def run(
    config: Optional[ExperimentConfig] = None,
    q0_values: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure8Result:
    """Sweep q0 for OSCAR and collect utility, usage and early-slot spending."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    q0_values = [float(q) for q in (q0_values if q0_values is not None else PAPER_Q0_VALUES)]

    result = build_study(config, q0_values).run(workers=workers, store=store)
    early_slots = max(1, config.horizon // 10)
    early_cost: List[float] = []
    for record in result.records:
        early = [
            float(sum(r.per_slot_costs()[:early_slots]))
            for r in record.results_for("OSCAR")
        ]
        early_cost.append(sum(early) / len(early))

    return Figure8Result(
        config=config,
        q0_values=q0_values,
        average_utility=result.series("average_utility")["OSCAR"],
        average_success_rate=result.series("average_success_rate")["OSCAR"],
        total_cost=result.series("total_cost")["OSCAR"],
        early_cost=early_cost,
        study=result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small(), trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
