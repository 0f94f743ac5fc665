"""Figure 4 — distribution of per-SD-pair EC success rates.

The paper uses Fig. 4 to argue fairness: under OSCAR the success rates of
individual SD pairs concentrate at high values, whereas the myopic
baselines (MA in particular, because of its conservative early slots)
produce a wider spread with a heavier low-success tail.  We reproduce the
histogram and additionally report Jain's fairness index per policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.analysis.metrics import jain_fairness_index, success_rate_histogram
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table


@dataclass
class Figure4Result:
    """Success-rate histogram and fairness index per policy."""

    config: ExperimentConfig
    bin_edges: List[float]
    histograms: Dict[str, List[float]]
    fairness: Dict[str, float]
    record: Optional[api.RunRecord] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload; the run uses the RunRecord schema."""
        import dataclasses

        return {
            "figure": "fig4",
            "config": dataclasses.asdict(self.config),
            "bin_edges": list(self.bin_edges),
            "histograms": {k: list(v) for k, v in self.histograms.items()},
            "fairness": dict(self.fairness),
            "record": self.record.to_dict() if self.record is not None else None,
        }

    def format_tables(self) -> str:
        """The histogram and fairness table as plain text."""
        headers = ["bin"] + list(self.histograms.keys())
        rows = []
        for index in range(len(self.bin_edges) - 1):
            label = f"[{self.bin_edges[index]:.1f},{self.bin_edges[index + 1]:.1f})"
            row: List[object] = [label]
            for name in self.histograms:
                row.append(self.histograms[name][index])
            rows.append(row)
        histogram_table = format_table(
            headers, rows, title="Fig. 4 Success-rate distribution (fraction of SD pairs per bin)"
        )
        fairness_table = format_table(
            ["policy", "jain_fairness"],
            [[name, value] for name, value in self.fairness.items()],
            title="Jain's fairness index of per-request success rates",
        )
        return histogram_table + "\n\n" + fairness_table


def run(
    config: Optional[ExperimentConfig] = None,
    bins: int = 10,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    record: Optional[api.RunRecord] = None,
    workers: int = 1,
) -> Figure4Result:
    """Run the Fig. 4 experiment (or reuse an existing run's ``record``)."""
    config = config or ExperimentConfig.paper()
    if record is None:
        record = api.compare(config, trials=trials, seed=seed, workers=workers, name="fig4")

    bin_edges: List[float] = []
    histograms: Dict[str, List[float]] = {}
    fairness: Dict[str, float] = {}
    for name in record.lineup:
        # Every request's success probability, pooled over the trials.
        pool = [
            probability
            for result in record.results_for(name)
            for probability in result.all_success_probabilities(include_unserved=True)
        ]
        edges, fractions = success_rate_histogram(pool, bins=bins)
        bin_edges = edges
        histograms[name] = fractions
        fairness[name] = jain_fairness_index(pool) if pool else 1.0
    return Figure4Result(
        config=config,
        bin_edges=bin_edges,
        histograms=histograms,
        fairness=fairness,
        record=record,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small())
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
