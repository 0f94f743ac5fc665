"""Figure 10 — throughput and delivered fidelity vs. classical-signaling latency.

The slotted engine the paper evaluates on assumes entanglement outcomes are
known instantaneously at the end of each slot.  The event-driven backend
(:mod:`repro.simulation.eventsim`) drops that assumption: link-level pairs
are heralded one classical one-way latency after generation, swap outcomes
propagate hop by hop to the end nodes, and a request only counts as served
when its end-to-end confirmation arrives before the slot deadline.  This
figure sweeps the classical signaling latency (as a fraction of the
entanglement-attempt window) on both backends and reports

* **(a) realized throughput** — the fraction of requests whose end-to-end
  entanglement is confirmed in time.  The slotted series is flat (latency
  is invisible to it) and anchors the event series, which matches it
  exactly at zero latency and decays as confirmations start missing the
  deadline, and
* **(b) mean delivered fidelity** — with the physical layer enabled, pairs
  now decohere over their *actual* dwell times (generation to swap
  consumption), so latency costs fidelity before it costs throughput.

OSCAR runs on both backends at every latency; the zero-latency column
doubles as a standing regression check that the two backends agree.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro import api
from repro.experiments.config import ExperimentConfig, with_physical_defaults
from repro.experiments.reporting import format_series_table
from repro.network.channels import ATTEMPT_DURATION_S

#: Latencies swept, as fractions of the per-slot entanglement-attempt window
#: (``attempts_per_slot × ATTEMPT_DURATION_S``).  Zero anchors the
#: slotted/event equivalence; the tail reaches deep into deadline-miss
#: territory for multi-hop routes.
LATENCY_FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.4)

#: Physical-layer setting used when the caller's config leaves it disabled:
#: near-deterministic swapping plus a memory-cutoff fidelity, so the
#: event backend's dwell-time decoherence has a threshold to cross.
PHYSICAL_DEFAULTS = {
    "swap_success": 0.98,
    "cutoff_fidelity": 0.25,
}


def attempt_window_s(config: ExperimentConfig) -> float:
    """Wall-clock length of one slot's entanglement-attempt window."""
    return config.attempts_per_slot * ATTEMPT_DURATION_S


def sweep_latencies_for(config: ExperimentConfig) -> List[float]:
    """The swept one-way latencies in seconds (:data:`LATENCY_FRACTIONS`)."""
    window = attempt_window_s(config)
    return [round(fraction * window, 9) for fraction in LATENCY_FRACTIONS]


@dataclass
class Figure10Result:
    """Throughput and delivered fidelity vs. classical-signaling latency."""

    config: ExperimentConfig
    latencies: List[float]
    throughput: Dict[str, List[float]]
    delivered_fidelity: Dict[str, List[float]]
    study: Optional["api.StudyResult"] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable payload built on the StudyResult schema."""
        return {
            "figure": "fig10",
            "config": dataclasses.asdict(self.config),
            "latencies": list(self.latencies),
            "throughput": {k: list(v) for k, v in self.throughput.items()},
            "delivered_fidelity": {
                k: list(v) for k, v in self.delivered_fidelity.items()
            },
            "event_stats": self.study.stats("eventsim") if self.study is not None else None,
            "study": self.study.to_dict() if self.study is not None else None,
        }

    def format_tables(self) -> str:
        """Both panels of Fig. 10 as plain-text tables."""
        return "\n\n".join(
            [
                format_series_table(
                    "latency (s)",
                    self.latencies,
                    self.throughput,
                    title="Fig. 10(a) Realized throughput vs. signaling latency",
                ),
                format_series_table(
                    "latency (s)",
                    self.latencies,
                    self.delivered_fidelity,
                    title="Fig. 10(b) Mean delivered fidelity vs. signaling latency",
                ),
            ]
        )


def fig10_config(
    config: ExperimentConfig, explicit: Optional[Sequence[str]] = None
) -> ExperimentConfig:
    """``config`` with the figure's physical layer on: see
    :func:`~repro.experiments.config.with_physical_defaults`, with
    :data:`PHYSICAL_DEFAULTS`."""
    return with_physical_defaults(config, PHYSICAL_DEFAULTS, explicit)


def build_study(
    config: ExperimentConfig, latencies: Sequence[float], name: str = "fig10"
) -> "api.Study":
    """The declarative form of the sweep: backend × latency, OSCAR line-up."""
    scenario = api.Scenario.from_config(fig10_config(config), name=name)
    scenario = scenario.with_policies("oscar")
    return (
        api.Study(name)
        .base(scenario)
        .over("timing.backend", ["slotted", "event"], label="backend")
        .over(
            "timing.signaling_latency_s",
            [float(latency) for latency in latencies],
            label="latency_s",
        )
    )


def _split_by_backend(
    result: "api.StudyResult", metric: str
) -> Dict[str, List[float]]:
    """Per-``"policy (backend)"`` series over the latency axis (grid order)."""
    series: Dict[str, List[float]] = {}
    for point, summary in zip(result.points, result.summaries()):
        backend = point.coordinates["backend"]
        for policy, metrics in summary.items():
            aggregate = metrics.get(metric)
            value = float(aggregate.mean) if aggregate is not None else float("nan")
            series.setdefault(f"{policy} ({backend})", []).append(value)
    return series


def run(
    config: Optional[ExperimentConfig] = None,
    latencies: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
    store: Union[None, str, "api.ResultStore"] = None,
) -> Figure10Result:
    """Run the backend × latency sweep and collect both panels."""
    config = (config or ExperimentConfig.paper()).with_run_overrides(trials, seed)
    config = fig10_config(config)
    latencies = (
        list(latencies) if latencies is not None else sweep_latencies_for(config)
    )

    result = build_study(config, latencies).run(workers=workers, store=store)
    return Figure10Result(
        config=config,
        latencies=[float(latency) for latency in latencies],
        throughput=_split_by_backend(result, "realized_success_rate"),
        delivered_fidelity=_split_by_backend(result, "mean_delivered_fidelity"),
        study=result,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run(ExperimentConfig.tiny(), trials=1)
    print(result.format_tables())


if __name__ == "__main__":  # pragma: no cover
    main()
