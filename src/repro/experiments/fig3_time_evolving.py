"""Figure 3 — time-evolving performance of OSCAR, MA and MF.

The paper's Fig. 3 shows, for one default-configuration run, how the average
utility (3a), the average EC success rate (3b) and the cumulative qubit
usage (3c) evolve over the T=200 slots.  The qualitative findings to
reproduce:

* OSCAR ends with the highest utility and success rate (≈0.9 in the paper)
  while spending (approximately) the full budget.
* MF under-spends the budget (its fixed per-slot share is often not fully
  usable) and ends with the lowest success rate (≈0.83).
* MA eventually spends as much as OSCAR but its conservative early slots
  depress the average utility/success rate (≈0.875), i.e. it is unfair over
  time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import api
from repro.analysis.stats import aggregate_series, downsample
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series_table
from repro.simulation.results import SimulationResult

#: Number of time points reported in the plain-text series tables.
REPORT_POINTS = 11


@dataclass
class Figure3Result:
    """Mean time-evolving series of every policy (averaged over trials)."""

    config: ExperimentConfig
    slots: List[int]
    running_utility: Dict[str, List[float]]
    running_success_rate: Dict[str, List[float]]
    cumulative_cost: Dict[str, List[float]]
    record: Optional[api.RunRecord] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload; the run uses the RunRecord schema."""
        import dataclasses

        return {
            "figure": "fig3",
            "config": dataclasses.asdict(self.config),
            "slots": list(self.slots),
            "running_utility": {k: list(v) for k, v in self.running_utility.items()},
            "running_success_rate": {
                k: list(v) for k, v in self.running_success_rate.items()
            },
            "cumulative_cost": {k: list(v) for k, v in self.cumulative_cost.items()},
            "record": self.record.to_dict() if self.record is not None else None,
        }

    def final_values(self) -> Dict[str, Dict[str, float]]:
        """Final (end-of-horizon) utility, success rate and spending per policy."""
        return {
            name: {
                "final_utility": self.running_utility[name][-1],
                "final_success_rate": self.running_success_rate[name][-1],
                "final_cost": self.cumulative_cost[name][-1],
            }
            for name in self.running_utility
        }

    def format_tables(self) -> str:
        """The three panels of Fig. 3 as plain-text tables."""
        points = min(REPORT_POINTS, len(self.slots))
        slots = downsample(self.slots, points)
        tables = [
            format_series_table(
                "slot",
                [int(s) for s in slots],
                {
                    name: downsample(series, points)
                    for name, series in self.running_utility.items()
                },
                title="Fig. 3(a) Running-average utility",
            ),
            format_series_table(
                "slot",
                [int(s) for s in slots],
                {
                    name: downsample(series, points)
                    for name, series in self.running_success_rate.items()
                },
                title="Fig. 3(b) Running-average EC success rate",
            ),
            format_series_table(
                "slot",
                [int(s) for s in slots],
                {
                    name: downsample(series, points)
                    for name, series in self.cumulative_cost.items()
                },
                title=f"Fig. 3(c) Cumulative qubit usage (budget C={self.config.total_budget:g})",
            ),
        ]
        return "\n\n".join(tables)


def _mean_series(
    record: api.RunRecord, series: Callable[[SimulationResult], List[float]]
) -> Dict[str, List[float]]:
    """Across-trial mean of one per-slot series, per line-up entry."""
    return {
        name: aggregate_series([series(result) for result in record.results_for(name)])[0]
        for name in record.lineup
    }


def run(
    config: Optional[ExperimentConfig] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> Figure3Result:
    """Run the Fig. 3 experiment and return its time-evolving series."""
    config = config or ExperimentConfig.paper()
    record = api.compare(config, trials=trials, seed=seed, workers=workers, name="fig3")
    return Figure3Result(
        config=config,
        slots=list(range(config.horizon)),
        running_utility=_mean_series(record, SimulationResult.running_average_utility),
        running_success_rate=_mean_series(
            record, SimulationResult.running_average_success_rate
        ),
        cumulative_cost=_mean_series(record, SimulationResult.cumulative_costs),
        record=record,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small())
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
