"""Figure 6 — impact of the network size.

The paper sweeps the number of nodes while tuning the Waxman parameters so
the average node degree stays near 4, and reports (a) the average EC success
rate and (b) the average qubit usage under the *same* total budget.
Findings to reproduce: success rates drop with network size (routes get
longer), and OSCAR stays ahead of MA and MF at every size.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_series_table

#: Node-count sweep used at paper scale.
PAPER_SIZES = (10, 15, 20, 25, 30)


@dataclass
class Figure6Result:
    """Average success rate and qubit usage as a function of network size."""

    config: ExperimentConfig
    sizes: List[int]
    success_rate: Dict[str, List[float]]
    total_cost: Dict[str, List[float]]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig6",
            "config": dataclasses.asdict(self.config),
            "sizes": list(self.sizes),
            "success_rate": {k: list(v) for k, v in self.success_rate.items()},
            "total_cost": {k: list(v) for k, v in self.total_cost.items()},
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def format_tables(self) -> str:
        """Both panels of Fig. 6 as plain-text tables."""
        return "\n\n".join(
            [
                format_series_table(
                    "nodes",
                    self.sizes,
                    self.success_rate,
                    title="Fig. 6(a) Average EC success rate vs. network size",
                ),
                format_series_table(
                    "nodes",
                    self.sizes,
                    self.total_cost,
                    title="Fig. 6(b) Average total qubit usage vs. network size",
                ),
            ]
        )


def sweep_sizes_for(config: ExperimentConfig) -> List[int]:
    """The node-count sweep, scaled to the configuration's default size."""
    factors = [size / 20.0 for size in PAPER_SIZES]
    sizes = sorted({max(6, int(round(config.num_nodes * factor))) for factor in factors})
    return sizes


def build_study(
    config: ExperimentConfig, sizes: Sequence[int], name: str = "fig6"
) -> "api.Study":
    """The declarative form of the Fig. 6 sweep (one node-count axis)."""
    return (
        api.Study(name)
        .base(api.Scenario.from_config(config, name=name))
        .over("topology.num_nodes", [int(s) for s in sizes], label="N")
    )


def run(
    config: Optional[ExperimentConfig] = None,
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure6Result:
    """Run the network-size sweep with the average degree held near 4."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    sizes = list(sizes) if sizes is not None else sweep_sizes_for(config)

    result = build_study(config, sizes).run(workers=workers, store=store)
    return Figure6Result(
        config=config,
        sizes=[int(s) for s in sizes],
        success_rate=result.series("average_success_rate"),
        total_cost=result.series("total_cost"),
        study=result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small(), sizes=(8, 12, 16), trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
