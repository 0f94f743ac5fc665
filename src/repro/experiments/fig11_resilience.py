"""Figure 11 — throughput and delivered fidelity vs. outage rate.

The paper's evaluation assumes a healthy network: every node and edge is
up for the whole horizon.  The fault-injection subsystem
(:mod:`repro.faults`) drops that assumption: seeded per-element failure
processes take nodes and edges down transiently (MTBF/MTTR), and the
simulators consult the fault state every slot.  This figure sweeps the
per-edge outage rate and contrasts the two degradation modes:

* **aware** — outages are visible to the policies: routes crossing a down
  element are filtered from the candidate set before the slot is solved,
  so traffic reroutes around the failure (graceful degradation), and
* **blind** — policies keep routing on the healthy topology; served
  requests whose route crosses a down element are interrupted after the
  fact (the no-mitigation baseline).

Both panels share the outage-rate axis and an OSCAR line-up:

* **(a) realized throughput** — the fraction of requests realized end to
  end; the gap between the aware and blind series is the value of
  degradation-aware routing, and
* **(b) mean delivered fidelity** — with the physical layer enabled, the
  delivered-fidelity chain runs under the same outages.

The zero-rate column doubles as a standing regression check: with no
outages the aware and blind series coincide with the fault-free run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import api
from repro.experiments.config import ExperimentConfig, with_physical_defaults
from repro.experiments.reporting import format_series_table

#: Per-edge failure probabilities per slot swept on the x-axis.  Zero
#: anchors the fault-free regression; the tail keeps several elements
#: down at any moment on paper-scale topologies.
OUTAGE_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)

#: Physical-layer setting used when the caller's config leaves it
#: disabled — same values as fig10, so panel (b) has fidelity to lose.
PHYSICAL_DEFAULTS = {
    "swap_success": 0.98,
    "cutoff_fidelity": 0.25,
}

def mtbf_for_rate(rate: float) -> float:
    """Mean slots between failures for a per-slot failure probability."""
    return 0.0 if rate <= 0 else 1.0 / float(rate)


@dataclass
class Figure11Result:
    """Throughput and delivered fidelity vs. per-edge outage rate."""

    config: ExperimentConfig
    outage_rates: List[float]
    throughput: Dict[str, List[float]]
    delivered_fidelity: Dict[str, List[float]]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig11",
            "config": dataclasses.asdict(self.config),
            "outage_rates": list(self.outage_rates),
            "throughput": {k: list(v) for k, v in self.throughput.items()},
            "delivered_fidelity": {
                k: list(v) for k, v in self.delivered_fidelity.items()
            },
            "fault_stats": self.study.stats("faults") if self.study is not None else None,
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def format_tables(self) -> str:
        """Both panels of Fig. 11 as plain-text tables."""
        return "\n\n".join(
            [
                format_series_table(
                    "outage rate (1/slot)",
                    self.outage_rates,
                    self.throughput,
                    title="Fig. 11(a) Realized throughput vs. outage rate",
                ),
                format_series_table(
                    "outage rate (1/slot)",
                    self.outage_rates,
                    self.delivered_fidelity,
                    title="Fig. 11(b) Mean delivered fidelity vs. outage rate",
                ),
            ]
        )


def fig11_config(
    config: ExperimentConfig, explicit: Optional[Sequence[str]] = None
) -> ExperimentConfig:
    """``config`` with the figure's physical layer and fault layer on.

    The physical layer follows
    :func:`~repro.experiments.config.with_physical_defaults` with
    :data:`PHYSICAL_DEFAULTS`.  Faults are switched on but their rates,
    repair time and awareness are left alone — the study axes own the
    rates, and the config's MTTR carries through (CLI ``--mttr`` included).
    """
    config = with_physical_defaults(config, PHYSICAL_DEFAULTS, explicit)
    return config.with_overrides(**{"faults.enabled": True})


def build_study(
    config: ExperimentConfig, rates: Sequence[float], name: str = "fig11"
) -> "api.Study":
    """The declarative form of the sweep: awareness × outage rate, OSCAR."""
    scenario = api.Scenario.from_config(fig11_config(config), name=name)
    scenario = scenario.with_policies("oscar")
    return (
        api.Study(name)
        .base(scenario)
        .over("faults.aware", [True, False], label="aware")
        .over(
            "faults.edge_mtbf",
            [mtbf_for_rate(rate) for rate in rates],
            label="edge_mtbf",
        )
    )


def _split_by_mode(
    result: "api.StudyResult", metric: str
) -> Dict[str, List[float]]:
    """Per-``"policy (aware|blind)"`` series over the rate axis (grid order)."""
    series: Dict[str, List[float]] = {}
    for point, summary in zip(result.points, result.summaries()):
        mode = "aware" if point.coordinates["aware"] else "blind"
        for policy, metrics in summary.items():
            aggregate = metrics.get(metric)
            value = float(aggregate.mean) if aggregate is not None else float("nan")
            series.setdefault(f"{policy} ({mode})", []).append(value)
    return series


def run(
    config: Optional[ExperimentConfig] = None,
    outage_rates: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure11Result:
    """Run the awareness × outage-rate sweep and collect both panels."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    config = fig11_config(config)
    rates = (
        [float(rate) for rate in outage_rates]
        if outage_rates is not None
        else list(OUTAGE_RATES)
    )

    result = build_study(config, rates).run(workers=workers, store=store)
    return Figure11Result(
        config=config,
        outage_rates=rates,
        throughput=_split_by_mode(result, "realized_success_rate"),
        delivered_fidelity=_split_by_mode(result, "mean_delivered_fidelity"),
        study=result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.tiny(), trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
