"""Per-slot records and whole-run results of a slotted simulation.

Everything the paper's figures need is derivable from the slots of a run:
per-slot utility (Fig. 3a), per-request EC success probabilities (Figs. 3b,
4, 5a, 6a), qubit usage (Figs. 3c, 5b, 6b, 7, 8) and the policy's virtual
queue / spending diagnostics (Figs. 7, 8).

A run keeps its slots as columns (:class:`SlotColumns`): one numpy array
per per-slot field, and one flat array with per-slot lengths for each
per-request field.  A simulator appends each slot to a
:class:`SlotColumnsBuilder`; :attr:`SimulationResult.records` builds each
:class:`SlotRecord` when it is read, and every summary metric and figure
series is a reduction over the columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.metrics import jain_fairness_index


@dataclass(frozen=True)
class SlotRecord:
    """Metrics of one simulated slot under one policy."""

    t: int
    num_requests: int
    num_served: int
    cost: int
    utility: float
    success_probabilities: Tuple[float, ...]
    realized_successes: Tuple[bool, ...] = ()
    realized_fidelities: Tuple[float, ...] = ()
    queue_length: Optional[float] = None
    # Physical-layer delivery outcomes (empty unless the run simulated the
    # physical chain — see :mod:`repro.simulation.physical`).  ``delivered``
    # marks requests whose end-to-end pair actually materialised (links AND
    # purification AND cutoff AND swaps); ``delivered_fidelities`` their
    # delivered fidelity (0 for failures); ``fidelity_served`` whether the
    # delivery also met the configured fidelity target.
    delivered_successes: Tuple[bool, ...] = ()
    delivered_fidelities: Tuple[float, ...] = ()
    fidelity_served: Tuple[bool, ...] = ()
    # Wall-clock slot boundaries stamped from the simulator's SlotClock
    # (``slot_end_s`` includes the guard time); ``None`` on records produced
    # before timestamps existed.
    slot_start_s: Optional[float] = None
    slot_end_s: Optional[float] = None

    @property
    def num_unserved(self) -> int:
        """Requests that were not served in this slot."""
        return self.num_requests - self.num_served

    @property
    def mean_success_probability(self) -> float:
        """Mean analytic EC success probability over this slot's requests.

        Unserved requests count as probability 0 so that dropping requests
        is never "free" in the reported success rate.
        """
        if self.num_requests == 0:
            return 0.0
        return float(sum(self.success_probabilities)) / self.num_requests

    @property
    def realized_success_rate(self) -> float:
        """Fraction of this slot's requests whose EC actually materialised."""
        if self.num_requests == 0:
            return 0.0
        return float(sum(self.realized_successes)) / self.num_requests

    @property
    def delivered_success_rate(self) -> float:
        """Fraction of this slot's requests whose end-to-end pair was delivered."""
        if self.num_requests == 0:
            return 0.0
        return float(sum(self.delivered_successes)) / self.num_requests


#: The per-slot columns of a run and their dtypes.
SLOT_COLUMNS = {
    "t": np.int64,
    "num_requests": np.int64,
    "num_served": np.int64,
    "cost": np.int64,
    "utility": np.float64,
}

#: Per-slot values that may be missing (``None``): each slot holds zero or
#: one value, so a missing value stays distinct from a NaN.
OPTIONAL_COLUMNS = {
    "queue_length": np.float64,
    "slot_start_s": np.float64,
    "slot_end_s": np.float64,
}

#: Per-request values: each slot holds its own number of them.
REQUEST_COLUMNS = {
    "success_probabilities": np.float64,
    "realized_successes": np.bool_,
    "realized_fidelities": np.float64,
    "delivered_successes": np.bool_,
    "delivered_fidelities": np.float64,
    "fidelity_served": np.bool_,
}


class Ragged:
    """Runs of values, one per slot: slot ``i`` holds
    ``values[offsets[i]:offsets[i + 1]]``."""

    __slots__ = ("values", "offsets")

    def __init__(self, values: np.ndarray, lengths: Iterable[int]):
        lengths = np.asarray(lengths, dtype=np.int64)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1] != len(values):
            raise ValueError(
                f"per-slot lengths add up to {offsets[-1]}, but there are {len(values)} values"
            )
        self.values = values
        self.offsets = offsets

    @property
    def lengths(self) -> np.ndarray:
        """The number of values of each slot."""
        return np.diff(self.offsets)

    def row(self, index: int) -> tuple:
        """Slot ``index``'s values as builtin scalars."""
        return tuple(self.values[self.offsets[index]:self.offsets[index + 1]].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ragged):
            return NotImplemented
        return _same(self.offsets, other.offsets) and _same(self.values, other.values)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same values, NaN equal to NaN."""
    return a.shape == b.shape and bool(np.all((a == b) | ((a != a) & (b != b))))


class SlotColumns:
    """A run's slots as columns: one array per :data:`SLOT_COLUMNS` entry
    and one :class:`Ragged` per :data:`OPTIONAL_COLUMNS` and
    :data:`REQUEST_COLUMNS` entry, all over the same slots."""

    __slots__ = (*SLOT_COLUMNS, *OPTIONAL_COLUMNS, *REQUEST_COLUMNS)

    def __init__(self, **columns):
        slots = len(columns["t"])
        for name, dtype in SLOT_COLUMNS.items():
            column = np.asarray(columns[name], dtype=dtype)
            if len(column) != slots:
                raise ValueError(f"column {name!r} has {len(column)} slots, not {slots}")
            setattr(self, name, column)
        for name in (*OPTIONAL_COLUMNS, *REQUEST_COLUMNS):
            column = columns[name]
            if len(column.offsets) - 1 != slots:
                raise ValueError(
                    f"column {name!r} has {len(column.offsets) - 1} slots, not {slots}"
                )
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records: Iterable[SlotRecord]) -> "SlotColumns":
        """The columns of ``records``, in order."""
        builder = SlotColumnsBuilder()
        for record in records:
            builder.append(**vars(record))
        return builder.build()

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotColumns):
            return NotImplemented
        return all(
            _same(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in (
                (getattr(self, name), getattr(other, name)) for name in self.__slots__
            )
        )

    def record(self, index: int) -> SlotRecord:
        """Slot ``index`` as a :class:`SlotRecord` of builtin values."""
        fields: Dict[str, object] = {
            name: getattr(self, name)[index].item() for name in SLOT_COLUMNS
        }
        for name in OPTIONAL_COLUMNS:
            value = getattr(self, name).row(index)
            fields[name] = value[0] if value else None
        for name in REQUEST_COLUMNS:
            fields[name] = getattr(self, name).row(index)
        return SlotRecord(**fields)


class SlotRecords(Sequence):
    """A read-only view of a run's slots as :class:`SlotRecord` objects.

    Each record is built from the columns when it is read, and not kept.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: SlotColumns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, index):
        slots = range(len(self._columns))[index]
        if isinstance(slots, range):
            return tuple(map(self._columns.record, slots))
        return self._columns.record(slots)

    def __iter__(self) -> Iterator[SlotRecord]:
        return map(self._columns.record, range(len(self._columns)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SlotRecords):
            return NotImplemented
        return self._columns == other._columns


#: The position of each :class:`SlotRecord` field in a builder row.
_FIELDS = tuple(SlotRecord.__dataclass_fields__)
_REQUEST_FIELDS = tuple(_FIELDS.index(name) for name in REQUEST_COLUMNS)


class SlotColumnsBuilder:
    """Collects a run's slots, one :meth:`append` per slot, into columns.

    A per-request field takes any sequence: a tuple, a list or a numpy
    array.  :meth:`build` returns the :class:`SlotColumns`; :meth:`last`
    the latest slot as a :class:`SlotRecord`, for a caller that streams the
    slots.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: List[tuple] = []

    def __len__(self) -> int:
        return len(self._rows)

    def append(
        self,
        t: int,
        num_requests: int,
        num_served: int,
        cost: int,
        utility: float,
        success_probabilities=(),
        realized_successes=(),
        realized_fidelities=(),
        queue_length: Optional[float] = None,
        delivered_successes=(),
        delivered_fidelities=(),
        fidelity_served=(),
        slot_start_s: Optional[float] = None,
        slot_end_s: Optional[float] = None,
    ) -> None:
        """Append one slot; the arguments are the fields of :class:`SlotRecord`."""
        self._rows.append((
            t, num_requests, num_served, cost, utility, success_probabilities,
            realized_successes, realized_fidelities, queue_length, delivered_successes,
            delivered_fidelities, fidelity_served, slot_start_s, slot_end_s,
        ))

    def last(self) -> SlotRecord:
        """The latest slot as a :class:`SlotRecord`."""
        row = list(self._rows[-1])
        for index in _REQUEST_FIELDS:
            values = row[index]
            row[index] = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
        return SlotRecord(*row)

    def build(self) -> SlotColumns:
        """The columns of every slot appended so far."""
        lists = dict(zip(_FIELDS, zip(*self._rows))) if self._rows else dict.fromkeys(_FIELDS, ())
        columns: Dict[str, object] = {
            name: np.array(lists[name], dtype=dtype) for name, dtype in SLOT_COLUMNS.items()
        }
        for name, dtype in OPTIONAL_COLUMNS.items():
            present = [value is not None for value in lists[name]]
            values = [value for value in lists[name] if value is not None]
            columns[name] = Ragged(np.array(values, dtype=dtype), present)
        for name, dtype in REQUEST_COLUMNS.items():
            chunks = lists[name]
            lengths = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
            if chunks and all(isinstance(chunk, np.ndarray) for chunk in chunks):
                values = np.concatenate(chunks).astype(dtype, copy=False)
            else:
                values = np.fromiter(
                    chain.from_iterable(chunks), dtype=dtype, count=int(lengths.sum())
                )
            columns[name] = Ragged(values, lengths)
        return SlotColumns(**columns)


@dataclass(frozen=True)
class SimulationResult:
    """Complete result of one policy run over one workload trace."""

    policy_name: str
    horizon: int
    total_budget: float
    columns: SlotColumns
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    @property
    def records(self) -> SlotRecords:
        """The slots as :class:`SlotRecord` objects, each built when read."""
        return SlotRecords(self.columns)

    # ------------------------------------------------------------------ #
    # Per-slot series
    # ------------------------------------------------------------------ #
    def per_slot_costs(self) -> List[int]:
        """Cost ``c_t`` of every slot."""
        return self.columns.cost.tolist()

    def cumulative_costs(self) -> List[float]:
        """Cumulative qubit usage after each slot (Fig. 3c)."""
        return list(np.cumsum(self.columns.cost, dtype=float))

    def per_slot_utilities(self) -> List[float]:
        """Utility ``u(r_t, N_t)`` of every slot."""
        return self.columns.utility.tolist()

    def running_average_utility(self) -> List[float]:
        """Running average of per-slot utility up to each slot (Fig. 3a)."""
        utilities = self.columns.utility
        sums = np.nancumsum(np.where(np.isfinite(utilities), utilities, np.nan))
        counts = np.arange(1, len(utilities) + 1)
        return list(sums / counts)

    def running_average_success_rate(self) -> List[float]:
        """Running average of the mean EC success probability (Fig. 3b)."""
        # Each slot's mean as SlotRecord.mean_success_probability forms it,
        # with Python's sum over the slot's probabilities.
        column = self.columns.success_probabilities
        values = column.values.tolist()
        offsets = column.offsets.tolist()
        rates = np.array(
            [
                float(sum(values[start:end])) / requests if requests else 0.0
                for start, end, requests in zip(
                    offsets, offsets[1:], self.columns.num_requests.tolist()
                )
            ],
            dtype=float,
        )
        return list(np.cumsum(rates) / np.arange(1, len(rates) + 1))

    def queue_lengths(self) -> List[Optional[float]]:
        """The policy's virtual-queue length at each slot (None for baselines)."""
        column = self.columns.queue_length
        values = iter(column.values.tolist())
        return [next(values) if present else None for present in column.lengths.tolist()]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def _total_requests(self) -> int:
        return int(self.columns.num_requests.sum())

    def _rate(self, column: Ragged) -> float:
        """Fraction of all requests whose flag in ``column`` is set."""
        total_requests = self._total_requests()
        if total_requests == 0:
            return 0.0
        return int(np.count_nonzero(column.values)) / total_requests

    @property
    def total_cost(self) -> float:
        """Total qubits spent over the run."""
        return float(int(self.columns.cost.sum()))

    @property
    def budget_violation(self) -> float:
        """``max(0, total_cost − C)``."""
        return max(0.0, self.total_cost - self.total_budget)

    @property
    def budget_utilisation(self) -> float:
        """Fraction of the budget consumed (can exceed 1)."""
        if self.total_budget == 0:
            return 0.0 if self.total_cost == 0 else float("inf")
        return self.total_cost / self.total_budget

    def average_utility(self) -> float:
        """Mean per-slot utility over the run (finite slots only)."""
        utilities = self.columns.utility
        utilities = utilities[np.isfinite(utilities)]
        if not utilities.size:
            return float("-inf")
        return float(np.mean(utilities))

    def average_success_rate(self) -> float:
        """Mean analytic EC success probability over every request of the run."""
        probabilities = self._success_pool()
        if not probabilities.size:
            return 0.0
        return float(np.mean(probabilities))

    def realized_success_rate(self) -> float:
        """Fraction of all requests whose EC actually materialised."""
        return self._rate(self.columns.realized_successes)

    def _success_pool(self) -> np.ndarray:
        """Every request's success probability, slot by slot: the served
        requests' probabilities, then a zero per unserved request."""
        column = self.columns.success_probabilities
        unserved = np.maximum(self.columns.num_requests - self.columns.num_served, 0)
        if not unserved.any():
            return column.values
        before = np.cumsum(unserved) - unserved
        pool = np.zeros(len(column.values) + int(unserved.sum()))
        shift = np.repeat(before, column.lengths)
        pool[np.arange(len(column.values)) + shift] = column.values
        return pool

    def all_success_probabilities(self, include_unserved: bool = True) -> List[float]:
        """Per-request analytic success probabilities across the run (Fig. 4).

        When ``include_unserved`` is true, every unserved request contributes
        a zero.
        """
        if include_unserved:
            return self._success_pool().tolist()
        return self.columns.success_probabilities.values.tolist()

    def served_fraction(self) -> float:
        """Fraction of requests that received a route and allocation."""
        total = self._total_requests()
        if total == 0:
            return 1.0
        return int(self.columns.num_served.sum()) / total

    def fairness(self) -> float:
        """Jain's index over the per-request success probabilities (unserved
        = 0); a run without requests is trivially fair, as all-zero input is."""
        values = self._success_pool()
        return jain_fairness_index(values) if values.size else 1.0

    # ------------------------------------------------------------------ #
    # Physical-layer delivery metrics (see repro.simulation.physical)
    # ------------------------------------------------------------------ #
    @property
    def has_physical_data(self) -> bool:
        """Whether this run simulated the physical delivery chain.

        True when any slot carries delivery outcomes; summaries only report
        the physical metrics in that case, so a disabled run never prints a
        misleading "measured zero" fidelity.
        """
        return bool(self.columns.delivered_successes.values.size)

    def delivered_success_rate(self) -> float:
        """Fraction of all requests whose end-to-end pair was physically delivered."""
        return self._rate(self.columns.delivered_successes)

    def fidelity_served_rate(self) -> float:
        """Fraction of all requests delivered at or above the fidelity target.

        Equals :meth:`delivered_success_rate` when no target is configured
        (every delivery then counts as fidelity-served).
        """
        return self._rate(self.columns.fidelity_served)

    def _delivered_fidelities(self, delivered_only: bool) -> np.ndarray:
        fidelities = self.columns.delivered_fidelities.values
        if delivered_only:
            return fidelities[self.columns.delivered_successes.values]
        return fidelities

    def all_delivered_fidelities(self, delivered_only: bool = True) -> List[float]:
        """Per-request delivered fidelities pooled over the run (Fig. 9).

        ``delivered_only`` keeps only materialised deliveries; otherwise
        failed requests contribute their recorded 0.
        """
        return self._delivered_fidelities(delivered_only).tolist()

    def mean_delivered_fidelity(self) -> float:
        """Mean fidelity over delivered requests (0 when nothing was delivered)."""
        fidelities = self._delivered_fidelities(delivered_only=True)
        if not fidelities.size:
            return 0.0
        return float(np.mean(fidelities))

    def wall_time_s(self) -> Optional[float]:
        """Simulated wall-clock span covered by this run's records, in seconds.

        Derived from the :class:`SlotClock` stamps
        (``slot_start_s``/``slot_end_s``): the span from the earliest
        stamped slot start to the latest stamped slot end.  ``None`` when no
        slot carries stamps — legacy payloads predating the timestamps
        round-trip through here safely.
        """
        starts = self.columns.slot_start_s.values
        ends = self.columns.slot_end_s.values
        if not starts.size or not ends.size:
            return None
        return float(ends.max() - starts.min())

    def summary(self) -> Dict[str, float]:
        """The run's :data:`SUMMARY_METRICS`, the dictionary a saved result keeps.

        ``fairness`` is left out: every saved record stores this dictionary,
        and those bytes are pinned.  The :data:`PHYSICAL_METRICS` appear only
        when the run simulated the physical chain — their absence means "not
        simulated", which is a different statement than a measured zero.
        """
        return {
            name: read(self)
            for name, read in summary_metrics(self.has_physical_data).items()
            if name != "fairness"
        }


#: The headline metrics of a run, in table order, with their readers.
#: ``SimulationResult.summary()``, ``RunRecord.summary()`` and ``repro sweep
#: --metrics`` all read this table.
SUMMARY_METRICS: Dict[str, Callable[[SimulationResult], float]] = {
    "average_utility": SimulationResult.average_utility,
    "average_success_rate": SimulationResult.average_success_rate,
    "realized_success_rate": SimulationResult.realized_success_rate,
    "total_cost": lambda result: result.total_cost,
    "budget_utilisation": lambda result: result.budget_utilisation,
    "budget_violation": lambda result: result.budget_violation,
    "served_fraction": SimulationResult.served_fraction,
    "fairness": SimulationResult.fairness,
    "delivered_success_rate": SimulationResult.delivered_success_rate,
    "mean_delivered_fidelity": SimulationResult.mean_delivered_fidelity,
    "fidelity_served_rate": SimulationResult.fidelity_served_rate,
}

#: The metrics that exist only for runs that simulated the physical layer.
PHYSICAL_METRICS = ("delivered_success_rate", "mean_delivered_fidelity", "fidelity_served_rate")


def summary_metrics(physical: bool) -> Dict[str, Callable[[SimulationResult], float]]:
    """The rows of :data:`SUMMARY_METRICS` a summary reports, in table order:
    all of them when ``physical``, else all but :data:`PHYSICAL_METRICS`."""
    return {
        name: read
        for name, read in SUMMARY_METRICS.items()
        if physical or name not in PHYSICAL_METRICS
    }
