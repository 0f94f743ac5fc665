"""Saving and loading experiment artefacts.

Reproduction runs can take a long time at paper scale, so the harness can
persist what it measured: per-run summaries, per-slot series and the
formatted figure tables.  Everything is stored as plain JSON / CSV so the
artefacts remain readable without this package.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ComparisonResult
from repro.simulation.results import SimulationResult, SlotRecord

PathLike = Union[str, Path]


# --------------------------------------------------------------------------- #
# Simulation results
# --------------------------------------------------------------------------- #
def result_to_dict(result: SimulationResult) -> Dict:
    """A JSON-serialisable representation of one policy run."""
    return {
        "policy_name": result.policy_name,
        "horizon": result.horizon,
        "total_budget": result.total_budget,
        "summary": result.summary(),
        "records": [
            {
                "t": record.t,
                "num_requests": record.num_requests,
                "num_served": record.num_served,
                "cost": record.cost,
                "utility": record.utility,
                "success_probabilities": list(record.success_probabilities),
                "realized_successes": [bool(v) for v in record.realized_successes],
                "queue_length": record.queue_length,
                "delivered_successes": [bool(v) for v in record.delivered_successes],
                "delivered_fidelities": list(record.delivered_fidelities),
                "fidelity_served": [bool(v) for v in record.fidelity_served],
                "slot_start_s": record.slot_start_s,
                "slot_end_s": record.slot_end_s,
            }
            for record in result.records
        ],
    }


def result_from_dict(
    payload: Mapping, diagnostics: Optional[Mapping] = None
) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output.

    ``diagnostics`` becomes the result's diagnostics mapping (the saved
    layer stats of :func:`repro.api.records.trial_diagnostics`).
    """
    records = tuple(
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
        for entry in payload["records"]
    )
    return SimulationResult(
        policy_name=str(payload["policy_name"]),
        horizon=int(payload["horizon"]),
        total_budget=float(payload["total_budget"]),
        records=records,
        diagnostics=dict(diagnostics or {}),
    )


def save_result(result: SimulationResult, path: PathLike) -> Path:
    """Write one policy run to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2, allow_nan=True))
    return path


def load_result(path: PathLike) -> SimulationResult:
    """Load a policy run previously written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text())
    return result_from_dict(payload)


# --------------------------------------------------------------------------- #
# Comparisons
# --------------------------------------------------------------------------- #
def comparison_to_dict(comparison: ComparisonResult) -> Dict:
    """A JSON-serialisable representation of a multi-trial comparison."""
    return {
        "config": dataclasses.asdict(comparison.config),
        "trials": [
            {name: result_to_dict(result) for name, result in trial.items()}
            for trial in comparison.trials
        ],
    }


def comparison_from_dict(payload: Mapping) -> ComparisonResult:
    """Rebuild a :class:`ComparisonResult` (the config is reconstructed too)."""
    config = ExperimentConfig.from_dict(payload["config"])
    comparison = ComparisonResult(config=config)
    for trial in payload["trials"]:
        comparison.trials.append(
            {name: result_from_dict(entry) for name, entry in trial.items()}
        )
    return comparison


def save_comparison(comparison: ComparisonResult, path: PathLike) -> Path:
    """Write a comparison run to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(comparison_to_dict(comparison), indent=2, allow_nan=True))
    return path


def load_comparison(path: PathLike) -> ComparisonResult:
    """Load a comparison previously written by :func:`save_comparison`."""
    return comparison_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------------- #
# Series / tables
# --------------------------------------------------------------------------- #
def save_series_csv(
    path: PathLike,
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
) -> Path:
    """Write aligned series (one column per policy) to a CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(series.keys())
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([x_label] + names)
        for index, x in enumerate(x_values):
            row: List = [x]
            for name in names:
                values = series[name]
                row.append(values[index] if index < len(values) else "")
            writer.writerow(row)
    return path


def load_series_csv(path: PathLike) -> Dict[str, List[float]]:
    """Load a CSV written by :func:`save_series_csv` (including the x column)."""
    path = Path(path)
    with path.open() as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns: Dict[str, List[float]] = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                if value != "":
                    columns[name].append(float(value))
    return columns


def save_text_report(path: PathLike, report: str) -> Path:
    """Write a formatted plain-text report (figure tables) to disk."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report if report.endswith("\n") else report + "\n")
    return path
