"""Figure 9 — delivered fidelity and fidelity-constrained throughput vs. budget.

This figure goes beyond the paper: with the physical-layer co-simulation
(:mod:`repro.simulation.physical`) enabled, "served" is no longer the end of
the story — a routed request must also survive purification, memory
decoherence and entanglement swapping, and a delivery only *counts* when its
end-to-end fidelity meets the target.  The figure sweeps the qubit budget
(the same axis as Fig. 5) in fidelity-constrained mode and reports

* **(a) mean delivered fidelity** — what quality the physical layer actually
  hands to applications at each budget level (more budget → more channels →
  more affordable purification rounds per link), and
* **(b) fidelity-constrained service rate** — the fraction of all requests
  delivered at or above the target, i.e. the throughput an application with
  a hard fidelity requirement experiences.

Policies are re-ranked through the same fidelity model the engines use
(routes that cannot deliver the target even fully purified are filtered
before route selection), so OSCAR and the baselines all face the identical
constraint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import api
from repro.experiments.config import ExperimentConfig, with_physical_defaults
from repro.experiments.fig5_budget import sweep_budgets_for
from repro.experiments.reporting import format_series_table

#: Physical-layer setting used when the caller's config leaves it disabled:
#: near-deterministic swapping, two requested purification rounds per link
#: (affordable only where the allocation pays for them) and a hard 0.6
#: delivered-fidelity target enforced in fidelity-constrained mode.
PHYSICAL_DEFAULTS = {
    "swap_success": 0.98,
    "purify_rounds": 2,
    "fidelity_target": 0.6,
    "fidelity_constrained": True,
}


@dataclass
class Figure9Result:
    """Delivered fidelity and fidelity-constrained throughput vs. the budget."""

    config: ExperimentConfig
    budgets: List[float]
    delivered_fidelity: Dict[str, List[float]]
    fidelity_throughput: Dict[str, List[float]]
    delivered_rate: Dict[str, List[float]]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig9",
            "config": dataclasses.asdict(self.config),
            "budgets": list(self.budgets),
            "delivered_fidelity": {k: list(v) for k, v in self.delivered_fidelity.items()},
            "fidelity_throughput": {k: list(v) for k, v in self.fidelity_throughput.items()},
            "delivered_rate": {k: list(v) for k, v in self.delivered_rate.items()},
            "physical_stats": self.study.stats("physical") if self.study is not None else None,
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def format_tables(self) -> str:
        """Both panels of Fig. 9 as plain-text tables."""
        return "\n\n".join(
            [
                format_series_table(
                    "budget C",
                    self.budgets,
                    self.delivered_fidelity,
                    title="Fig. 9(a) Mean delivered fidelity vs. budget",
                ),
                format_series_table(
                    "budget C",
                    self.budgets,
                    self.fidelity_throughput,
                    title="Fig. 9(b) Fidelity-constrained service rate vs. budget",
                ),
            ]
        )


def fig9_config(
    config: ExperimentConfig, explicit: Optional[Sequence[str]] = None
) -> ExperimentConfig:
    """``config`` with the figure's physical layer on: see
    :func:`~repro.experiments.config.with_physical_defaults`, with
    :data:`PHYSICAL_DEFAULTS`."""
    return with_physical_defaults(config, PHYSICAL_DEFAULTS, explicit)


def build_study(
    config: ExperimentConfig, budgets: Sequence[float], name: str = "fig9"
) -> "api.Study":
    """The declarative form of the Fig. 9 sweep (one budget axis, physical on)."""
    return (
        api.Study(name)
        .base(api.Scenario.from_config(fig9_config(config), name=name))
        .over("budget.total_budget", [float(b) for b in budgets], label="C")
    )


def run(
    config: Optional[ExperimentConfig] = None,
    budgets: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure9Result:
    """Run the fidelity-constrained budget sweep and collect the series."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    config = fig9_config(config)
    budgets = list(budgets) if budgets is not None else sweep_budgets_for(config)

    result = build_study(config, budgets).run(workers=workers, store=store)
    return Figure9Result(
        config=config,
        budgets=[float(b) for b in budgets],
        delivered_fidelity=result.series("mean_delivered_fidelity"),
        fidelity_throughput=result.series("fidelity_served_rate"),
        delivered_rate=result.series("delivered_success_rate"),
        study=result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.small(), budgets=None, trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
