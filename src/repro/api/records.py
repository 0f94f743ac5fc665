"""The one result type of every run, and the one saved trial layout.

Every session — single policy line-up, multi-trial comparison, serving or
multi-tenant — produces one :class:`RunRecord`: the scenario that was run,
the per-trial results keyed by line-up name, the provider-side records for
multi-user runs, and free-form run metadata.  Its :meth:`~RunRecord.summary`
aggregates the headline metrics
(:data:`~repro.simulation.results.SUMMARY_METRICS`) straight from the
results, and the figure modules read their series from
:meth:`~RunRecord.results_for`.

Records round-trip through JSON (:meth:`RunRecord.save` /
:meth:`RunRecord.load`).  This module is the only one that knows the saved
trial layout: the checkpoints of :mod:`repro.faults.checkpoint` write their
trials with its public codecs (:func:`trial_to_dict`,
:func:`trial_diagnostics`, :func:`provider_record_to_dict` and their
inverses).  A result saves its slots as columns
(:class:`~repro.simulation.results.SlotColumns`), each one
:func:`encode_column`: the base64 of its zlib-compressed little-endian
bytes.

Every layer reports through one stats channel: the ``diagnostics`` mapping
of each result holds one summable mapping per layer of
:data:`STATS_LAYERS`, :meth:`RunRecord.stats` merges a layer across the
record, and a saved record keeps those mappings, so a reloaded run reports
the same stats as a live one.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.analysis.stats import TrialAggregate, aggregate_scalar, merge_stat_mappings
from repro.core.multiuser import ProviderSlotRecord
from repro.experiments.config import ExperimentConfig
from repro.simulation.results import (
    OPTIONAL_COLUMNS,
    REQUEST_COLUMNS,
    SLOT_COLUMNS,
    Ragged,
    SimulationResult,
    SlotColumns,
    SlotRecord,
    summary_metrics,
)

PathLike = Union[str, Path]

#: Schema version written into every persisted record.  Version 3 saves each
#: result's slots as compressed columns; version 2 saved one JSON object per
#: slot and each result's layer stats in a ``diagnostics`` list beside
#: ``trials``; version 1 kept only a run-level ``telemetry`` section.  Both
#: older versions still load.
SCHEMA_VERSION = 3

#: The layers of the stats channel, in ``[health]`` order.  Each names the
#: key of a result's ``diagnostics`` mapping that holds the layer's counters:
#: builtin ``int``/``float`` values that merge by sum.
STATS_LAYERS = ("kernel", "physical", "eventsim", "serving", "faults", "guard", "telemetry")

#: What a saved record keeps of each result's diagnostics: the layer stats
#: and the span ring of ``full`` telemetry, none of the per-slot histories.
SAVED_DIAGNOSTICS = STATS_LAYERS + ("telemetry_spans",)


def check_stats_layer(layer: str) -> None:
    """Reject a name that is not one of :data:`STATS_LAYERS`."""
    if layer not in STATS_LAYERS:
        raise ValueError(
            f"unknown stats layer {layer!r}; choose from {', '.join(STATS_LAYERS)}"
        )


def trial_diagnostics(trial: Mapping[str, SimulationResult]) -> Dict[str, Dict[str, object]]:
    """The saved diagnostics of one trial's results, by line-up name."""
    return {
        name: {
            key: result.diagnostics[key]
            for key in SAVED_DIAGNOSTICS
            if key in result.diagnostics
        }
        for name, result in trial.items()
    }


def encode_column(values: np.ndarray) -> Dict[str, object]:
    """One column as ``{dtype, length, data}``: ``data`` is the base64 of the
    zlib-compressed little-endian bytes."""
    values = np.ascontiguousarray(values, dtype=values.dtype.newbyteorder("<"))
    return {
        "dtype": values.dtype.str,
        "length": len(values),
        "data": base64.b64encode(zlib.compress(values.tobytes(), 1)).decode("ascii"),
    }


def decode_column(payload: Mapping, dtype) -> np.ndarray:
    """The values of an :func:`encode_column` payload, as ``dtype``."""
    raw = zlib.decompress(base64.b64decode(payload["data"]))
    values = np.frombuffer(raw, dtype=np.dtype(str(payload["dtype"])))
    if len(values) != int(payload["length"]):
        raise ValueError(
            f"column holds {len(values)} values, its header says {payload['length']}"
        )
    return values.astype(dtype, copy=False)


def columns_to_dict(columns: SlotColumns) -> Dict[str, object]:
    """A result's slots in the saved layout: each per-slot column encoded,
    each per-request (or optional) column as its ``values`` and per-slot
    ``lengths``."""
    payload: Dict[str, object] = {
        name: encode_column(getattr(columns, name)) for name in SLOT_COLUMNS
    }
    for name in (*OPTIONAL_COLUMNS, *REQUEST_COLUMNS):
        column = getattr(columns, name)
        payload[name] = {
            "values": encode_column(column.values),
            "lengths": encode_column(column.lengths),
        }
    return payload


def columns_from_dict(payload: Mapping) -> SlotColumns:
    """The inverse of :func:`columns_to_dict`."""
    columns: Dict[str, object] = {
        name: decode_column(payload[name], dtype) for name, dtype in SLOT_COLUMNS.items()
    }
    for name, dtype in {**OPTIONAL_COLUMNS, **REQUEST_COLUMNS}.items():
        column = payload[name]
        columns[name] = Ragged(
            decode_column(column["values"], dtype), decode_column(column["lengths"], np.int64)
        )
    return SlotColumns(**columns)


def result_to_dict(result: SimulationResult) -> Dict:
    """A JSON-serialisable representation of one policy run."""
    return {
        "policy_name": result.policy_name,
        "horizon": result.horizon,
        "total_budget": result.total_budget,
        "summary": result.summary(),
        "columns": columns_to_dict(result.columns),
    }


def result_from_dict(
    payload: Mapping, diagnostics: Optional[Mapping] = None
) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output.

    ``diagnostics`` becomes the result's diagnostics mapping (the saved
    layer stats of :func:`trial_diagnostics`).  A result saved by schema 1
    or 2 holds a ``records`` list, one object per slot, instead of
    ``columns``.
    """
    if "columns" in payload:
        columns = columns_from_dict(payload["columns"])
    else:
        columns = SlotColumns.from_records(_legacy_records(payload["records"]))
    return SimulationResult(
        policy_name=str(payload["policy_name"]),
        horizon=int(payload["horizon"]),
        total_budget=float(payload["total_budget"]),
        columns=columns,
        diagnostics=dict(diagnostics or {}),
    )


def _legacy_records(entries) -> List[SlotRecord]:
    """The slots of a schema-1 or schema-2 result."""
    return [
        SlotRecord(
            t=int(entry["t"]),
            num_requests=int(entry["num_requests"]),
            num_served=int(entry["num_served"]),
            cost=int(entry["cost"]),
            utility=float(entry["utility"]),
            success_probabilities=tuple(float(p) for p in entry["success_probabilities"]),
            realized_successes=tuple(bool(v) for v in entry.get("realized_successes", [])),
            queue_length=entry.get("queue_length"),
            delivered_successes=tuple(
                bool(v) for v in entry.get("delivered_successes", [])
            ),
            delivered_fidelities=tuple(
                float(v) for v in entry.get("delivered_fidelities", [])
            ),
            fidelity_served=tuple(bool(v) for v in entry.get("fidelity_served", [])),
            slot_start_s=entry.get("slot_start_s"),
            slot_end_s=entry.get("slot_end_s"),
        )
        for entry in entries
    ]


def trial_to_dict(trial: Mapping[str, SimulationResult]) -> Dict[str, Dict]:
    """One trial's results in the saved layout, by line-up name."""
    return {name: result_to_dict(result) for name, result in trial.items()}


def trial_from_dict(
    results: Mapping[str, Mapping], diagnostics: Optional[Mapping[str, Mapping]] = None
) -> Dict[str, SimulationResult]:
    """Rebuild one trial's results with their saved diagnostics.

    The inverse of :func:`trial_to_dict` plus :func:`trial_diagnostics`; a
    trial saved without diagnostics loads with empty ones.
    """
    saved = diagnostics or {}
    return {
        name: result_from_dict(entry, diagnostics=saved.get(name))
        for name, entry in results.items()
    }


def _v1_diagnostics(payload: Mapping) -> List[Dict[str, Dict[str, object]]]:
    """A version-1 ``telemetry`` section as the first result's diagnostics.

    Version 1 saved only the run's merged telemetry stats and stamped span
    events; carried by the first result, they merge back to what was saved,
    as multi-user runs carry their run-level layers on the first tenant.
    """
    section = payload.get("telemetry")
    trials = payload.get("trials") or []
    if not isinstance(section, Mapping) or not trials or not trials[0]:
        return []
    first: Dict[str, object] = {}
    if isinstance(section.get("stats"), Mapping):
        first["telemetry"] = dict(section["stats"])
    if isinstance(section.get("spans"), list):
        first["telemetry_spans"] = [dict(event) for event in section["spans"]]
    return [{next(iter(trials[0])): first}]


def provider_record_to_dict(record: ProviderSlotRecord) -> Dict[str, object]:
    """A JSON-serialisable representation of one provider-side slot record."""
    return {
        "t": record.t,
        "qubit_utilisation": record.qubit_utilisation,
        "channel_utilisation": record.channel_utilisation,
        "total_cost": record.total_cost,
        "served_requests": record.served_requests,
        "total_requests": record.total_requests,
    }


def provider_record_from_dict(payload: Mapping) -> ProviderSlotRecord:
    """Rebuild a provider-side slot record from :func:`provider_record_to_dict` output."""
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
        ``"comparison"`` (policy line-up on identical traces),
        ``"serving"`` (the open-system serving layer) or ``"multiuser"``
        (tenants sharing the QDN).
    trials:
        One mapping per trial from line-up name (policy name, or user name
        for multi-user runs) to that run's :class:`SimulationResult`.
    provider_trials:
        For multi-user runs, the provider-side per-slot records of each
        trial; empty for comparisons.
    meta:
        Free-form run metadata (workers used, wall-clock, early stop, …).
        Never included in equality-sensitive summaries.
    """

    scenario: Dict[str, object]
    kind: str = "comparison"
    trials: List[Dict[str, SimulationResult]] = field(default_factory=list)
    provider_trials: List[Tuple[ProviderSlotRecord, ...]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

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
    # Aggregation
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Dict[str, TrialAggregate]]:
        """Mean ± CI of the headline metrics for every line-up entry.

        The metrics are :data:`~repro.simulation.results.SUMMARY_METRICS`,
        in table order, aggregated over the trials; an entry reports the
        physical-layer metrics when any of its trials simulated the
        physical chain.  Works for every kind — for multi-user runs the
        entries are the tenants.
        """
        summaries: Dict[str, Dict[str, TrialAggregate]] = {}
        for name in self.lineup:
            results = self.results_for(name)
            physical = any(result.has_physical_data for result in results)
            summaries[name] = {
                metric: aggregate_scalar([read(result) for result in results])
                for metric, read in summary_metrics(physical).items()
            }
        return summaries

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

    def stats(self, layer: str) -> Optional[Dict[str, object]]:
        """One layer's stats, summed over every trial and line-up entry.

        ``layer`` is one of :data:`STATS_LAYERS`: ``kernel`` (solves,
        cache/memo hits, prunes, exhaustive vs Gibbs slots, …), ``physical``
        (the delivery chain), ``eventsim`` (the event backend's signaling),
        ``serving`` (sessions and requests), ``faults`` (outages and lost
        requests), ``guard`` (invariant checks) or ``telemetry`` (span
        profiles and latency histograms).  ``None`` when no result carries
        the layer: it was off, or no policy used it.
        """
        check_stats_layer(layer)
        return merge_stat_mappings(
            result.diagnostics.get(layer)
            for trial in self.trials
            for result in trial.values()
        )

    # Named one-line delegations to :meth:`stats`, kept for callers that
    # predate it.
    def kernel_stats(self) -> Optional[Dict[str, object]]:
        return self.stats("kernel")

    def physical_stats(self) -> Optional[Dict[str, object]]:
        return self.stats("physical")

    def event_stats(self) -> Optional[Dict[str, object]]:
        return self.stats("eventsim")

    def serving_stats(self) -> Optional[Dict[str, object]]:
        return self.stats("serving")

    def fault_stats(self) -> Optional[Dict[str, object]]:
        return self.stats("faults")

    def telemetry_stats(self) -> Optional[Dict[str, object]]:
        return self.stats("telemetry")

    def telemetry_spans(self) -> List[Dict[str, object]]:
        """All span events of the run, stamped with line-up and trial.

        Collects the bounded per-run event rings
        (``diagnostics["telemetry_spans"]``, present only at the ``full``
        telemetry level), annotating each event with the line-up name and
        trial index it came from so a merged Chrome trace stays
        attributable.  Empty for untraced or ``light`` runs.
        """
        spans: List[Dict[str, object]] = []
        for index, trial in enumerate(self.trials):
            for name, result in trial.items():
                for event in result.diagnostics.get("telemetry_spans") or ():
                    span = dict(event)
                    span.setdefault("lineup", name)
                    span.setdefault("trial", index)
                    spans.append(span)
        return spans

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
                total_requests += int(result.columns.num_requests.sum())
        if total_seconds <= 0.0:
            return None
        return total_requests / total_seconds

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation of the whole record."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "scenario": self.scenario,
            "trials": [trial_to_dict(trial) for trial in self.trials],
            "diagnostics": [trial_diagnostics(trial) for trial in self.trials],
            "provider_trials": [
                [provider_record_to_dict(record) for record in trial]
                for trial in self.provider_trials
            ],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output (any schema)."""
        diagnostics = payload.get("diagnostics")
        if diagnostics is None:
            diagnostics = _v1_diagnostics(payload)
        return cls(
            scenario=dict(payload["scenario"]),
            kind=str(payload.get("kind", "comparison")),
            trials=[
                trial_from_dict(trial, diagnostics[index] if index < len(diagnostics) else None)
                for index, trial in enumerate(payload.get("trials", []))
            ],
            provider_trials=[
                tuple(provider_record_from_dict(entry) for entry in trial)
                for trial in payload.get("provider_trials", [])
            ],
            meta=dict(payload.get("meta", {})),
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
