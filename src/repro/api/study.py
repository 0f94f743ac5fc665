"""Declarative parameter-sweep studies.

Every evaluation in the paper — the budget sweep of Fig. 5, the
network-size sweep of Fig. 6, the V and q0 sweeps of Figs. 7/8, the
ablations — is the same shape: take a base :class:`~repro.api.scenario.Scenario`,
vary one or more axes, run every resulting point for several trials, and
tabulate per-policy metrics against the axis.  :class:`Study` expresses that
shape as data instead of a hand-rolled loop:

>>> from repro import api
>>> study = (api.Study("fig6")
...          .base(api.Scenario.paper())
...          .over("topology.num_nodes", [10, 20, 30, 40], label="N"))
>>> result = study.run(workers=8, store="results/fig6")
>>> print(result.format_summary())

Axes come in four kinds:

* :meth:`Study.over` — a config path such as ``"budget.total_budget"``,
  ``"topology.num_nodes"``, ``"faults.edge_mtbf"`` or plain ``"horizon"``
  (any spelling of :data:`~repro.experiments.config.CONFIG_PATHS`).  It
  goes through the same setter as ``Scenario.with_config``, so sweeping a
  field of a layer that is off turns that layer on.
* :meth:`Study.over_topology` — the topology family (``"waxman"``,
  ``"grid"``, ``"ring"``, ``"star"``, ``"line"``, ``"complete"``).
* :meth:`Study.over_policies` — alternative policy line-ups.
* :meth:`Study.over_values` — an arbitrary ``(scenario, value) -> scenario``
  transform, the escape hatch for axes the config cannot express.

Execution flattens **point × policy × trial** into one work queue: with
``workers > 1`` a single process pool executes every unit of the whole
grid, so workers stay saturated across point boundaries instead of idling
at the end of each point's trial batch.  Each unit derives its random
streams exactly as the serial :class:`~repro.api.session.Session` does
(``derive_seed`` per trial, :func:`~repro.utils.rng.spawn_rngs` per policy
index), so a parallel study is byte-identical to a serial one.

Passing ``store=`` enables the content-hash result store: every completed
point's :class:`~repro.api.records.RunRecord` is persisted under the SHA-256
of its scenario description and the record schema version, and a re-run
(after an interrupt, or with a grid that shares points) loads those records
instead of recomputing them, layer stats included.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.stats import merge_stat_mappings
from repro.api import records as records_schema
from repro.api.records import RunRecord, check_stats_layer
from repro.api.scenario import PolicyLike, PolicySpec, Scenario
from repro.api.session import build_trial, execute_trial
from repro.experiments.config import ConfigError, resolve_path
from repro.faults import PoolSupervisor
from repro.network.topology import TOPOLOGY_KINDS
from repro.simulation.results import SimulationResult
from repro.utils.rng import spawn_rngs

PathLike = Union[str, Path]

#: Schema version written into every persisted study result.
STUDY_SCHEMA_VERSION = 1

def _display(value: object) -> str:
    """Compact human-readable form of one axis value (used in point names)."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _coerce_lineup(entry: object) -> Tuple[PolicySpec, ...]:
    """Interpret one :meth:`Study.over_policies` value as a policy line-up."""
    if isinstance(entry, (str, PolicySpec, Mapping)):
        return (PolicySpec.coerce(entry),)
    if (
        isinstance(entry, tuple)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], Mapping)
    ):
        # A single ("name", {kwargs}) spec, not a two-policy line-up.
        return (PolicySpec.coerce(entry),)
    if isinstance(entry, (tuple, list)):
        if not entry:
            raise ValueError("a policy line-up cannot be empty")
        return tuple(PolicySpec.coerce(item) for item in entry)
    raise TypeError(f"cannot interpret {entry!r} as a policy line-up")


@dataclass(frozen=True)
class StudyAxis:
    """One swept dimension of a study (see the module docstring)."""

    label: str
    kind: str  # "config" | "topology" | "policies" | "custom"
    values: Tuple[object, ...]
    path: Optional[str] = None
    applier: Optional[Callable[[Scenario, object], Scenario]] = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.label!r} has no values")

    def apply(self, scenario: Scenario, value: object) -> Scenario:
        """Return ``scenario`` with this axis set to ``value``."""
        if self.kind == "config":
            assert self.path is not None
            return scenario.with_config(**{self.path: value})
        if self.kind == "topology":
            return scenario.with_topology(kind=str(value))
        if self.kind == "policies":
            return scenario.with_policies(*value)
        assert self.applier is not None
        return self.applier(scenario, value)

    def coordinate(self, value: object) -> object:
        """The JSON-safe coordinate recorded for ``value``."""
        if self.kind == "policies":
            return "+".join(spec.label or spec.name for spec in value)
        if isinstance(value, (int, float, str, bool)) or value is None:
            return value
        return str(value)

    def describe(self) -> Dict[str, object]:
        """A JSON-serialisable description of the axis."""
        return {
            "label": self.label,
            "kind": self.kind,
            "path": self.path,
            "values": [self.coordinate(value) for value in self.values],
        }


@dataclass(frozen=True)
class StudyPoint:
    """One cell of the expanded grid: its index, coordinates, name and scenario.

    Only :meth:`Study.run` reads the scenario.  A point loaded with a
    :class:`StudyResult` has none: its record keeps the scenario's
    description, and a description that no longer builds a scenario must
    not stop the results from loading.
    """

    index: Tuple[int, ...]
    coordinates: Dict[str, object]
    name: str
    scenario: Optional[Scenario] = None


# --------------------------------------------------------------------------- #
# Work-queue execution units
# --------------------------------------------------------------------------- #
def _unit_count(scenario: Scenario) -> Optional[int]:
    """Units one trial splits into: one per policy, or ``None`` (whole trial).

    Multi-user trials cannot be split — the tenants interact through the
    shared provider — so they run as a single unit.  Serving trials likewise:
    the whole open system shares one admission queue.
    """
    if scenario.is_multiuser or scenario.is_serving:
        return None
    return len(scenario.lineup_names())


def run_study_unit(scenario: Scenario, trial: int, unit_index: int) -> SimulationResult:
    """Run one (trial, policy-index) unit of a comparison scenario.

    Built by :func:`repro.api.session.build_trial`, like a whole trial, and
    the policy's stream is ``spawn_rngs(run_seed, len(lineup))[unit_index]``
    — exactly the stream a joint run of the line-up hands that policy.
    Splitting a line-up across workers is therefore byte-identical to
    running it in one process.
    """
    simulator, run_seed = build_trial(scenario, trial)
    policies = scenario.build_policies()
    stream = spawn_rngs(run_seed, len(policies))[unit_index]
    return simulator.run(policies[unit_index], seed=stream)


def _execute_study_task(scenario: Scenario, trial: int, unit_index: Optional[int]):
    """Top-level pool target: one unit of the study work queue."""
    if unit_index is None:
        return execute_trial(scenario, trial)
    return run_study_unit(scenario, trial, unit_index)


# --------------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------------- #
@dataclass
class ResultStore:
    """Content-addressed store of completed point records.

    Each :class:`~repro.api.records.RunRecord` is written to
    ``<root>/<sha256(scenario)>.json``: the key covers the full scenario
    description (config including trials/seed, line-up, users) and the
    record schema version, so a store can be shared between studies — any
    study whose grid contains an already-computed point reuses it — and a
    record schema bump recomputes every point.
    """

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def coerce(cls, value: Union[None, "ResultStore", PathLike]) -> Optional["ResultStore"]:
        """Accept ``None``, a path or an existing store."""
        if value is None or isinstance(value, ResultStore):
            return value
        return cls(root=Path(value))

    @staticmethod
    def key_for(scenario: Scenario) -> str:
        """The content hash a scenario's record is stored under.

        The scenario *name* is excluded — it does not influence results —
        so points are shared across studies (and across axis relabellings)
        whenever config, line-up and users coincide.
        """
        description = scenario.to_dict()
        description.pop("name", None)
        description["schema_version"] = records_schema.SCHEMA_VERSION
        payload = json.dumps(description, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, scenario: Scenario) -> Path:
        return self.root / f"{self.key_for(scenario)}.json"

    def load(self, scenario: Scenario) -> Optional[RunRecord]:
        """The stored record of ``scenario``, or ``None`` (miss / corruption).

        A corrupt or truncated entry (torn write, disk-full run, manual
        tampering) is treated as a miss: it is removed with a warning so
        the recomputed record rewrites it cleanly instead of failing every
        future run of the grid.
        """
        path = self.path_for(scenario)
        if not path.exists():
            return None
        try:
            return RunRecord.load(path)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as error:
            warnings.warn(
                f"result store entry {path} is corrupt ({error!r}); "
                "discarding it and recomputing the point",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def save(self, scenario: Scenario, record: RunRecord) -> Path:
        """Persist ``record`` under ``scenario``'s content hash."""
        return record.save(self.path_for(scenario))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# --------------------------------------------------------------------------- #
# Study result
# --------------------------------------------------------------------------- #
@dataclass
class StudyResult:
    """Everything one study run produced, aligned point by point.

    ``axes`` holds the JSON descriptions of the swept axes, ``points`` the
    expanded grid and ``records`` the per-point
    :class:`~repro.api.records.RunRecord` in the same order.
    """

    name: str
    axes: List[Dict[str, object]]
    points: List[StudyPoint]
    records: List[RunRecord]
    meta: Dict[str, object] = field(default_factory=dict)
    _summaries: Optional[List[Dict]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def lineup(self) -> List[str]:
        """Line-up names ordered by first appearance across the grid."""
        names: List[str] = []
        for record in self.records:
            for name in record.lineup:
                if name not in names:
                    names.append(name)
        return names

    def axis_values(self, label: str) -> List[object]:
        """The declared values of one axis."""
        for axis in self.axes:
            if axis["label"] == label:
                return list(axis["values"])
        raise KeyError(f"no axis labelled {label!r}")

    def coordinates(self) -> List[Dict[str, object]]:
        """The coordinate mapping of every point, in grid order."""
        return [dict(point.coordinates) for point in self.points]

    def record_at(self, **coordinates) -> RunRecord:
        """The record of the point matching every given coordinate."""
        matches = [
            record
            for point, record in zip(self.points, self.records)
            if all(point.coordinates.get(key) == value for key, value in coordinates.items())
        ]
        if not matches:
            raise KeyError(f"no study point with coordinates {coordinates!r}")
        if len(matches) > 1:
            raise KeyError(f"coordinates {coordinates!r} match {len(matches)} points")
        return matches[0]

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def summaries(self) -> List[Dict]:
        """Per-point ``RunRecord.summary()`` output (cached), in grid order."""
        if self._summaries is None:
            self._summaries = [record.summary() for record in self.records]
        return self._summaries

    def series(self, metric: str) -> Dict[str, List[float]]:
        """Across-trial mean of ``metric`` per line-up entry, point by point.

        Entries absent from a point (e.g. under a policies axis) yield NaN,
        keeping every series aligned with :attr:`points`; so do metrics a
        point did not measure (the physical-layer metrics of a point run
        without the physical layer).
        """
        names = self.lineup
        out: Dict[str, List[float]] = {name: [] for name in names}
        for summary in self.summaries():
            for name in names:
                metrics = summary.get(name)
                aggregate = metrics.get(metric) if metrics is not None else None
                out[name].append(
                    float(aggregate.mean) if aggregate is not None else float("nan")
                )
        return out

    def stats(self, layer: str) -> Optional[Dict[str, object]]:
        """One layer's stats summed over every point of the grid.

        Merges :meth:`RunRecord.stats` point by point; store-served points
        contribute like fresh ones.  ``None`` when no point carried the
        layer.
        """
        check_stats_layer(layer)
        return merge_stat_mappings(record.stats(layer) for record in self.records)

    def telemetry_spans(self) -> List[Dict[str, object]]:
        """Every point's span events, stamped with the point name.

        Concatenates :meth:`RunRecord.telemetry_spans` in grid order,
        annotating each event with its point name — the feed behind
        ``repro trace`` on a study result, where spans from the worker
        pool's distinct pids form the cross-process Chrome trace.
        """
        spans: List[Dict[str, object]] = []
        for point, record in zip(self.points, self.records):
            for event in record.telemetry_spans():
                event.setdefault("point", point.name)
                spans.append(event)
        return spans

    def format_summary(
        self,
        metrics: Sequence[str] = ("average_success_rate", "total_cost"),
        title: Optional[str] = None,
    ) -> str:
        """An axis-aware summary table: one row per point."""
        from repro.experiments.reporting import format_table

        axis_labels = [axis["label"] for axis in self.axes]
        names = self.lineup
        headers = (axis_labels or ["point"]) + [
            f"{name}.{metric}" for name in names for metric in metrics
        ]
        rows: List[List[object]] = []
        for index, (point, summary) in enumerate(zip(self.points, self.summaries())):
            if axis_labels:
                row: List[object] = [point.coordinates.get(label) for label in axis_labels]
            else:
                row = [index]
            for name in names:
                entry = summary.get(name)
                for metric in metrics:
                    aggregate = entry.get(metric) if entry is not None else None
                    row.append(
                        float(aggregate.mean) if aggregate is not None else float("nan")
                    )
            rows.append(row)
        if title is None:
            title = f"Study {self.name!r}: {len(self.points)} point(s)"
        return format_table(headers, rows, title=title)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation of the whole study."""
        return {
            "schema_version": STUDY_SCHEMA_VERSION,
            "name": self.name,
            "axes": [dict(axis) for axis in self.axes],
            "points": [
                {
                    "index": list(point.index),
                    "coordinates": dict(point.coordinates),
                    "name": point.name,
                    "record": record.to_dict(),
                }
                for point, record in zip(self.points, self.records)
            ],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudyResult":
        """Rebuild a study result from :meth:`to_dict` output."""
        points: List[StudyPoint] = []
        records: List[RunRecord] = []
        for entry in payload.get("points", []):
            record = RunRecord.from_dict(entry["record"])
            points.append(
                StudyPoint(
                    index=tuple(entry.get("index", [])),
                    coordinates=dict(entry.get("coordinates", {})),
                    name=str(entry.get("name", "")),
                )
            )
            records.append(record)
        return cls(
            name=str(payload.get("name", "study")),
            axes=[dict(axis) for axis in payload.get("axes", [])],
            points=points,
            records=records,
            meta=dict(payload.get("meta", {})),
        )

    def save(self, path: PathLike) -> Path:
        """Write the study result to a JSON file and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, allow_nan=True))
        return path

    @classmethod
    def load(cls, path: PathLike) -> "StudyResult":
        """Load a study result previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------------------- #
# The builder
# --------------------------------------------------------------------------- #
class Study:
    """Fluent builder of a multi-axis parameter sweep (see module docstring).

    Builder calls mutate and return ``self``; the base scenario itself is
    immutable, so one scenario can safely seed many studies.
    """

    def __init__(self, name: str = "study", base: Optional[Scenario] = None):
        self.name = name
        self._base = base
        self._axes: List[StudyAxis] = []

    # ------------------------------------------------------------------ #
    # Declaration
    # ------------------------------------------------------------------ #
    def base(self, scenario: Scenario) -> "Study":
        """Set the base scenario every grid point is derived from."""
        self._base = scenario
        return self

    def over(self, path: str, values: Sequence, label: Optional[str] = None) -> "Study":
        """Sweep one config value, addressed by any spelling of its path.

        The default label is the canonical path (``"faults.edge_mtbf"``
        for ``"fault_edge_mtbf"``).
        """
        resolved = resolve_path(path)
        if resolved is None:
            raise ConfigError(f"{path!r} is a removed setting; it cannot be swept")
        self._axes.append(
            StudyAxis(
                label=label or resolved, kind="config",
                values=tuple(values), path=resolved,
            )
        )
        return self

    def over_topology(self, *kinds: str, label: str = "topology") -> "Study":
        """Sweep the topology family (``grid``, ``ring``, ``waxman``, …)."""
        unknown = sorted(set(map(str, kinds)) - set(TOPOLOGY_KINDS))
        if unknown:
            raise ValueError(
                f"unknown topology kind(s) {', '.join(unknown)}; "
                f"choose from {', '.join(TOPOLOGY_KINDS)}"
            )
        self._axes.append(
            StudyAxis(label=label, kind="topology", values=tuple(map(str, kinds)))
        )
        return self

    def over_policies(self, *lineups: object, label: str = "policies") -> "Study":
        """Sweep the policy line-up; each value is one line-up.

        A value may be a single policy (name / spec / ``(name, kwargs)``)
        or a list of them: ``over_policies("oscar", ["oscar", "ma"])``
        compares OSCAR alone against OSCAR-vs-MA.
        """
        self._axes.append(
            StudyAxis(
                label=label, kind="policies",
                values=tuple(_coerce_lineup(entry) for entry in lineups),
            )
        )
        return self

    def over_values(
        self,
        label: str,
        values: Sequence,
        apply: Callable[[Scenario, object], Scenario],
    ) -> "Study":
        """Sweep an arbitrary scenario transform (not JSON-serialisable)."""
        self._axes.append(
            StudyAxis(label=label, kind="custom", values=tuple(values), applier=apply)
        )
        return self

    def with_trials(self, trials: int) -> "Study":
        """Override the trial count of the base scenario."""
        self._base = self._base_scenario().with_trials(trials)
        return self

    def with_seed(self, seed: int) -> "Study":
        """Override the base seed of the base scenario."""
        self._base = self._base_scenario().with_seed(seed)
        return self

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    @property
    def axes(self) -> Tuple[StudyAxis, ...]:
        return tuple(self._axes)

    def _base_scenario(self) -> Scenario:
        return self._base if self._base is not None else Scenario.paper()

    def __len__(self) -> int:
        total = 1
        for axis in self._axes:
            total *= len(axis.values)
        return total

    def points(self) -> List[StudyPoint]:
        """Expand the axes into the full grid (cartesian product, row-major)."""
        base = self._base_scenario()
        labels = [axis.label for axis in self._axes]
        duplicates = sorted({l for l in labels if labels.count(l) > 1})
        if duplicates:
            raise ValueError(f"duplicate axis label(s): {', '.join(duplicates)}")
        points: List[StudyPoint] = []
        ranges = [range(len(axis.values)) for axis in self._axes]
        for index in itertools.product(*ranges):
            scenario = base
            coordinates: Dict[str, object] = {}
            parts: List[str] = []
            for axis, position in zip(self._axes, index):
                value = axis.values[position]
                scenario = axis.apply(scenario, value)
                coordinate = axis.coordinate(value)
                coordinates[axis.label] = coordinate
                parts.append(f"{axis.label}={_display(coordinate)}")
            name = base.name + ("/" + ",".join(parts) if parts else "")
            points.append(
                StudyPoint(
                    index=tuple(index),
                    coordinates=coordinates,
                    name=name,
                    scenario=scenario.with_name(name),
                )
            )
        return points

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        workers: int = 1,
        store: Union[None, ResultStore, PathLike] = None,
        on_progress: Optional[Callable[[str], None]] = None,
        stop_flag: Optional[Callable[[], bool]] = None,
    ) -> StudyResult:
        """Execute the whole grid and return the :class:`StudyResult`.

        ``workers > 1`` drains the flattened point × policy × trial queue
        with one process pool (results byte-identical to serial).  ``store``
        enables the resumable result store; ``on_progress`` receives one
        human-readable line per cached/completed point.  ``stop_flag`` is
        polled between work units (e.g. an
        :class:`~repro.faults.InterruptGuard`'s ``stop_requested``); once it
        returns ``True`` the queue winds down, completed points stay
        persisted in the store, and ``KeyboardInterrupt`` is raised if the
        grid is left incomplete — re-running with the same ``store``
        resumes from the finished points.
        """
        points = self.points()
        store_obj = ResultStore.coerce(store)
        started = time.perf_counter()

        records: List[Optional[RunRecord]] = [None] * len(points)
        pending: List[int] = []
        cached = 0
        for position, point in enumerate(points):
            point.scenario.validate()
            if store_obj is not None:
                hit = store_obj.load(point.scenario)
                if hit is not None:
                    # The stored record may come from a differently-named
                    # study sharing the point; present it under this grid's
                    # name.
                    hit.scenario = point.scenario.to_dict()
                    records[position] = hit
                    cached += 1
                    self._notify(on_progress, f"{point.name}: loaded from store")
                    continue
            pending.append(position)

        # Per-policy unit splitting only pays off when a pool drains the
        # queue; a serial run executes whole trials so the topology and
        # trace are built once per trial, not once per policy (results are
        # byte-identical either way — see run_study_unit).
        split_units = workers > 1
        unit_counts = {
            p: (_unit_count(points[p].scenario) if split_units else None)
            for p in pending
        }
        tasks: List[Tuple[int, int, Optional[int]]] = []
        for position in pending:
            units = unit_counts[position]
            for trial in range(points[position].scenario.config.trials):
                if units is None:
                    tasks.append((position, trial, None))
                else:
                    tasks.extend((position, trial, u) for u in range(units))

        outcomes: Dict[Tuple[int, int, Optional[int]], object] = {}
        remaining = {p: 0 for p in pending}
        for position, _, _ in tasks:
            remaining[position] += 1

        def finish_point(position: int) -> None:
            point = points[position]
            record = _assemble_record(
                point, position, unit_counts[position], outcomes, self.name, workers
            )
            if store_obj is not None:
                store_obj.save(point.scenario, record)
            records[position] = record
            self._notify(on_progress, f"{point.name}: done")

        recoveries = 0
        if workers > 1 and len(tasks) > 1:
            # The supervisor survives worker deaths (resubmitting the lost
            # units) and every unit is a pure function of its seeds, so a
            # supervised run remains byte-identical to a serial one.
            with PoolSupervisor(max_workers=min(workers, len(tasks))) as supervisor:
                for task_index, result in supervisor.run_unordered(
                    _execute_study_task,
                    [(points[p].scenario, trial, unit) for p, trial, unit in tasks],
                ):
                    key = tasks[task_index]
                    outcomes[key] = result
                    remaining[key[0]] -= 1
                    if remaining[key[0]] == 0:
                        finish_point(key[0])
                    if stop_flag is not None and stop_flag():
                        break
                recoveries = supervisor.recoveries
        else:
            for key in tasks:
                if stop_flag is not None and stop_flag():
                    break
                position, trial, unit = key
                outcomes[key] = _execute_study_task(points[position].scenario, trial, unit)
                remaining[position] -= 1
                if remaining[position] == 0:
                    finish_point(position)

        if stop_flag is not None and any(record is None for record in records):
            # Cooperative stop left the grid incomplete.  Every finished
            # point was already flushed to the store (finish_point), so a
            # re-run with the same store resumes from them.
            raise KeyboardInterrupt
        assert all(record is not None for record in records)
        meta = {
            "workers": workers,
            "points": len(points),
            "points_cached": cached,
            "tasks_executed": len(tasks),
            "elapsed_seconds": time.perf_counter() - started,
            "store": str(store_obj.root) if store_obj is not None else None,
        }
        if recoveries:
            meta["worker_recoveries"] = recoveries
        return StudyResult(
            name=self.name,
            axes=[axis.describe() for axis in self._axes],
            points=points,
            records=list(records),  # type: ignore[arg-type]
            meta=meta,
        )

    @staticmethod
    def _notify(on_progress: Optional[Callable[[str], None]], message: str) -> None:
        if on_progress is not None:
            on_progress(message)


def _assemble_record(
    point: StudyPoint,
    position: int,
    units: Optional[int],
    outcomes: Dict[Tuple[int, int, Optional[int]], object],
    study_name: str,
    workers: int,
) -> RunRecord:
    """Merge a point's completed work units into one :class:`RunRecord`."""
    scenario = point.scenario
    trials_count = scenario.config.trials
    trial_dicts: List[Dict[str, SimulationResult]] = []
    provider_trials: List[Tuple] = []
    for trial in range(trials_count):
        if units is None:
            results, provider = outcomes.pop((position, trial, None))
            trial_dicts.append(dict(results))
            if provider:
                provider_trials.append(tuple(provider))
        else:
            merged: Dict[str, SimulationResult] = {}
            for unit in range(units):
                result = outcomes.pop((position, trial, unit))
                merged[result.policy_name] = result
            trial_dicts.append(merged)
    return RunRecord(
        scenario=scenario.to_dict(),
        kind=scenario.kind,
        trials=trial_dicts,
        provider_trials=provider_trials,
        meta={
            "workers": workers,
            "requested_trials": trials_count,
            "completed_trials": trials_count,
            "stopped_early": False,
            "study": study_name,
            "point": dict(point.coordinates),
        },
    )


def run_study(
    study: Study,
    workers: int = 1,
    store: Union[None, ResultStore, PathLike] = None,
    on_progress: Optional[Callable[[str], None]] = None,
    stop_flag: Optional[Callable[[], bool]] = None,
) -> StudyResult:
    """Function-style alias of :meth:`Study.run`."""
    return study.run(
        workers=workers, store=store, on_progress=on_progress, stop_flag=stop_flag
    )
