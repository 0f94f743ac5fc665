"""The unified result schema of facade runs.

Every session — single policy line-up, multi-trial comparison, or
multi-tenant — produces one :class:`RunRecord`: the scenario that was run,
the per-trial results keyed by line-up name, the provider-side records for
multi-user runs, and free-form run metadata.  Records round-trip through
JSON (:meth:`RunRecord.save` / :meth:`RunRecord.load`) and convert to the
legacy :class:`~repro.experiments.runner.ComparisonResult` so the figure
modules' aggregation helpers keep working unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.stats import TrialAggregate
from repro.core.multiuser import ProviderSlotRecord
from repro.experiments.config import ExperimentConfig
from repro.simulation.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.runner import ComparisonResult

PathLike = Union[str, Path]

#: Schema version written into every persisted record.
SCHEMA_VERSION = 1


def merge_kernel_stats(stats_mappings) -> Optional[Dict[str, int]]:
    """Sum integer kernel-counter mappings; ``None`` when none are present.

    The merge behind :meth:`RunRecord.kernel_stats`,
    :meth:`repro.api.study.StudyResult.kernel_stats` and the horizon
    benchmark — a thin cast-to-int wrapper over
    :func:`repro.analysis.stats.merge_stat_mappings` (the physical-stats
    merge shares the same implementation without the cast).
    """
    from repro.analysis.stats import merge_stat_mappings

    return merge_stat_mappings(stats_mappings, cast=int)


def _provider_record_to_dict(record: ProviderSlotRecord) -> Dict[str, object]:
    return {
        "t": record.t,
        "qubit_utilisation": record.qubit_utilisation,
        "channel_utilisation": record.channel_utilisation,
        "total_cost": record.total_cost,
        "served_requests": record.served_requests,
        "total_requests": record.total_requests,
    }


def _provider_record_from_dict(payload: Mapping) -> ProviderSlotRecord:
    return ProviderSlotRecord(
        t=int(payload["t"]),
        qubit_utilisation=float(payload["qubit_utilisation"]),
        channel_utilisation=float(payload["channel_utilisation"]),
        # JSON preserves int vs float; keep the stored value untouched so the
        # round trip is lossless even if a cost ever arrives as a float.
        total_cost=payload["total_cost"],
        served_requests=int(payload["served_requests"]),
        total_requests=int(payload["total_requests"]),
    )


@dataclass
class RunRecord:
    """Everything one scenario run produced.

    Attributes
    ----------
    scenario:
        The JSON form of the scenario that was executed
        (:meth:`repro.api.scenario.Scenario.to_dict`).
    kind:
        ``"comparison"`` (policy line-up on identical traces) or
        ``"multiuser"`` (tenants sharing the QDN).
    trials:
        One mapping per trial from line-up name (policy name, or user name
        for multi-user runs) to that run's :class:`SimulationResult`.
    provider_trials:
        For multi-user runs, the provider-side per-slot records of each
        trial; empty for comparisons.
    meta:
        Free-form run metadata (workers used, wall-clock, early stop, …).
        Never included in equality-sensitive summaries.
    telemetry:
        The persisted telemetry section (``{"stats": ..., "spans": ...}``)
        restored from JSON.  Freshly-run records carry telemetry inside
        the per-result diagnostics instead; the accessors below prefer the
        live diagnostics and fall back to this section, and
        :meth:`to_dict` persists whichever is present — the one
        diagnostics family that survives a save/load round-trip.
    """

    scenario: Dict[str, object]
    kind: str = "comparison"
    trials: List[Dict[str, SimulationResult]] = field(default_factory=list)
    provider_trials: List[Tuple[ProviderSlotRecord, ...]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    telemetry: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_trials(self) -> int:
        """Trials actually completed (may be fewer than requested on early stop)."""
        return len(self.trials)

    @property
    def lineup(self) -> List[str]:
        """Line-up names in the order of the first trial."""
        if not self.trials:
            return []
        return list(self.trials[0].keys())

    def results_for(self, name: str) -> List[SimulationResult]:
        """All trial results of one line-up entry."""
        return [trial[name] for trial in self.trials]

    def scenario_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` the scenario ran with."""
        return ExperimentConfig.from_dict(self.scenario["config"])

    # ------------------------------------------------------------------ #
    # Aggregation (delegates to the comparison machinery)
    # ------------------------------------------------------------------ #
    def to_comparison(self) -> "ComparisonResult":
        """The legacy :class:`ComparisonResult` view of this record.

        Works for both kinds — for multi-user runs the "policies" are the
        tenants — so every aggregation helper (``summary``, ``mean_series``,
        ``success_probability_pool``) applies uniformly.
        """
        from repro.experiments.runner import ComparisonResult

        return ComparisonResult(
            config=self.scenario_config(), trials=[dict(trial) for trial in self.trials]
        )

    def summary(self) -> Dict[str, Dict[str, TrialAggregate]]:
        """Mean ± CI of the headline metrics for every line-up entry."""
        return self.to_comparison().summary()

    def format_summary(self, title: str = "") -> str:
        """The summary as an aligned plain-text table."""
        from repro.experiments.reporting import format_summary

        return format_summary(self.summary(), title=title)

    def provider_average_utilisation(self) -> Dict[str, float]:
        """Mean provider-side qubit/channel utilisation (multi-user runs)."""
        records = [r for trial in self.provider_trials for r in trial]
        if not records:
            return {"qubits": 0.0, "channels": 0.0}
        return {
            "qubits": sum(r.qubit_utilisation for r in records) / len(records),
            "channels": sum(r.channel_utilisation for r in records) / len(records),
        }

    def kernel_stats(self) -> Optional[Dict[str, int]]:
        """Aggregate compiled-kernel statistics across trials and line-up.

        Sums the per-policy ``diagnostics["kernel"]`` counters (solves,
        cache/memo hits, structure re-binds vs recompiles, dual iterations,
        …) every horizon produced.  Returns ``None`` when no result carries
        kernel diagnostics — runs of policies that solve nothing, or records
        loaded from JSON (diagnostics are in-memory only).
        """
        return merge_kernel_stats(
            result.diagnostics.get("kernel")
            for trial in self.trials
            for result in trial.values()
        )

    def physical_stats(self) -> Optional[Dict[str, float]]:
        """Aggregate physical-layer statistics across trials and line-up.

        Sums the per-run ``diagnostics["physical"]`` counters every
        physical-layer engine produced (attempts, purification rounds and
        failures, cutoff discards, swap failures, deliveries, raw pairs
        consumed, delivered-fidelity sum — see
        :class:`repro.simulation.physical.PhysicalStats`).  Returns ``None``
        when no result carries physical diagnostics: runs with the physical
        layer disabled, or records loaded from JSON (diagnostics are
        in-memory only, exactly like :meth:`kernel_stats`).
        """
        from repro.simulation.physical import merge_physical_stats

        return merge_physical_stats(
            result.diagnostics.get("physical")
            for trial in self.trials
            for result in trial.values()
        )

    def event_stats(self) -> Optional[Dict[str, float]]:
        """Aggregate event-backend statistics across trials and line-up.

        Sums the per-run ``diagnostics["eventsim"]`` counters the
        event-driven backend produced (events processed, pairs generated,
        heralds, swap messages, confirmations, deadline misses,
        cutoff-expired pairs, deliveries — see
        :class:`repro.simulation.eventsim.EventStats`).  Returns ``None``
        when no result carries event diagnostics: slotted-backend runs, or
        records loaded from JSON (diagnostics are in-memory only, exactly
        like :meth:`kernel_stats`).
        """
        from repro.simulation.eventsim import merge_event_stats

        return merge_event_stats(
            result.diagnostics.get("eventsim")
            for trial in self.trials
            for result in trial.values()
        )

    def serving_stats(self) -> Optional[Dict[str, float]]:
        """Aggregate serving-layer statistics across trials.

        Sums the per-run ``diagnostics["serving"]`` counters the serving
        scheduler produced (sessions arrived/admitted/rejected/departed,
        requests arrived/served/dropped, sojourn slots, cost, the Jain
        fairness raw moments, simulated seconds — see
        :class:`repro.serving.scheduler.ServingSimulator`).  Returns
        ``None`` when no result carries serving diagnostics: batch runs, or
        records loaded from JSON (diagnostics are in-memory only, exactly
        like :meth:`kernel_stats`).
        """
        from repro.serving.scheduler import merge_serving_stats

        return merge_serving_stats(
            result.diagnostics.get("serving")
            for trial in self.trials
            for result in trial.values()
        )

    def fault_stats(self) -> Optional[Dict[str, int]]:
        """Aggregate fault-injection statistics across trials and line-up.

        Sums the per-run ``diagnostics["faults"]`` counters the simulators
        produced under an active fault schedule (element downtime, degraded
        slots, failures/repairs, unservable and interrupted requests — see
        :class:`repro.faults.FaultStats`).  Returns ``None`` when no result
        carries fault diagnostics: fault-free runs, or records loaded from
        JSON (diagnostics are in-memory only, exactly like
        :meth:`kernel_stats`).
        """
        from repro.faults import merge_fault_stats

        return merge_fault_stats(
            result.diagnostics.get("faults")
            for trial in self.trials
            for result in trial.values()
        )

    def guard_stats(self) -> Optional[Dict[str, int]]:
        """Aggregate invariant-guard check counters across trials and line-up.

        Sums the per-run ``diagnostics["guard"]`` counters an armed
        :class:`repro.guard.InvariantGuard` produced (slots observed, checks
        executed per layer pack, breaches).  Returns ``None`` when no result
        carries guard diagnostics: ``guard_level="off"`` runs, or records
        loaded from JSON (diagnostics are in-memory only, exactly like
        :meth:`kernel_stats`).
        """
        from repro.guard.invariants import merge_guard_stats

        return merge_guard_stats(
            result.diagnostics.get("guard")
            for trial in self.trials
            for result in trial.values()
        )

    def telemetry_stats(self) -> Optional[Dict[str, float]]:
        """Aggregate telemetry statistics across trials and line-up.

        Sums the per-run ``diagnostics["telemetry"]`` mappings an armed
        :class:`repro.telemetry.Tracer` produced (per-span wall/CPU
        profiles, counters, gauges, latency histograms) with the
        deterministic sorted-key merge.  Unlike the other diagnostics
        families, telemetry survives persistence: when no live
        diagnostics are present (records loaded from JSON) the accessor
        falls back to the stored ``telemetry`` section.  ``None`` for
        untraced runs and legacy payloads.
        """
        from repro.telemetry.tracer import merge_telemetry_stats

        merged = merge_telemetry_stats(
            result.diagnostics.get("telemetry")
            for trial in self.trials
            for result in trial.values()
        )
        if merged is not None:
            return merged
        if self.telemetry:
            stored = self.telemetry.get("stats")
            if isinstance(stored, Mapping):
                return dict(stored)
        return None

    def telemetry_spans(self) -> List[Dict[str, object]]:
        """All span events of the run, stamped with line-up and trial.

        Collects the bounded per-run event rings
        (``diagnostics["telemetry_spans"]``, present only at the ``full``
        telemetry level), annotating each event with the line-up name and
        trial index it came from so a merged Chrome trace stays
        attributable.  Falls back to the persisted ``telemetry`` section
        for records loaded from JSON; empty for untraced or ``light``
        runs.
        """
        spans: List[Dict[str, object]] = []
        for index, trial in enumerate(self.trials):
            for name, result in trial.items():
                for event in result.diagnostics.get("telemetry_spans") or ():
                    span = dict(event)
                    span.setdefault("lineup", name)
                    span.setdefault("trial", index)
                    spans.append(span)
        if spans:
            return spans
        if self.telemetry:
            stored = self.telemetry.get("spans")
            if isinstance(stored, list):
                return [dict(event) for event in stored]
        return []

    def wall_time_s(self) -> Optional[float]:
        """Total simulated wall-clock seconds across trials.

        Each trial contributes the longest stamped span among its line-up
        results (the line-up shares one simulated timeline per trial);
        trials without :class:`~repro.simulation.clock.SlotClock` stamps —
        legacy payloads — contribute nothing.  ``None`` when no trial
        carries stamps.
        """
        total = 0.0
        found = False
        for trial in self.trials:
            spans = [
                span
                for span in (result.wall_time_s() for result in trial.values())
                if span is not None
            ]
            if spans:
                found = True
                total += max(spans)
        return total if found else None

    def requests_per_second(self) -> Optional[float]:
        """Simulated requests per simulated second, over all stamped results.

        Total requests divided by total stamped span, both summed over every
        line-up result of every trial (so a line-up replaying one trace N
        times scales numerator and denominator alike).  ``None`` when no
        result carries slot-clock stamps or the stamped span is zero.
        """
        total_seconds = 0.0
        total_requests = 0
        for trial in self.trials:
            for result in trial.values():
                span = result.wall_time_s()
                if span is None:
                    continue
                total_seconds += span
                total_requests += sum(r.num_requests for r in result.records)
        if total_seconds <= 0.0:
            return None
        return total_requests / total_seconds

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation of the whole record."""
        from repro.experiments.persistence import result_to_dict

        payload: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "scenario": self.scenario,
            "trials": [
                {name: result_to_dict(result) for name, result in trial.items()}
                for trial in self.trials
            ],
            "provider_trials": [
                [_provider_record_to_dict(record) for record in trial]
                for trial in self.provider_trials
            ],
            "meta": dict(self.meta),
        }
        stats = self.telemetry_stats()
        spans = self.telemetry_spans()
        if stats is not None or spans:
            section: Dict[str, object] = {}
            if stats is not None:
                section["stats"] = stats
            if spans:
                section["spans"] = spans
            payload["telemetry"] = section
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        from repro.experiments.persistence import result_from_dict

        return cls(
            scenario=dict(payload["scenario"]),
            kind=str(payload.get("kind", "comparison")),
            trials=[
                {name: result_from_dict(entry) for name, entry in trial.items()}
                for trial in payload.get("trials", [])
            ],
            provider_trials=[
                tuple(_provider_record_from_dict(entry) for entry in trial)
                for trial in payload.get("provider_trials", [])
            ],
            meta=dict(payload.get("meta", {})),
            telemetry=dict(payload["telemetry"])
            if isinstance(payload.get("telemetry"), Mapping)
            else None,
        )

    def save(self, path: PathLike) -> Path:
        """Write the record to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, allow_nan=True))
        return path

    @classmethod
    def load(cls, path: PathLike) -> "RunRecord":
        """Load a record previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #
    @classmethod
    def from_comparison(cls, comparison: "ComparisonResult", name: str = "comparison") -> "RunRecord":
        """Wrap a legacy :class:`ComparisonResult` in the unified schema."""
        from repro.api.scenario import Scenario

        scenario = Scenario.from_config(comparison.config, name=name)
        return cls(
            scenario=scenario.to_dict(),
            kind="comparison",
            trials=[dict(trial) for trial in comparison.trials],
        )
