"""Per-slot records and whole-run results of a slotted simulation.

Everything the paper's figures need is derivable from these records:
per-slot utility (Fig. 3a), per-request EC success probabilities (Figs. 3b,
4, 5a, 6a), qubit usage (Figs. 3c, 5b, 6b, 7, 8) and the policy's virtual
queue / spending diagnostics (Figs. 7, 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

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


@dataclass(frozen=True)
class SimulationResult:
    """Complete result of one policy run over one workload trace."""

    policy_name: str
    horizon: int
    total_budget: float
    records: Tuple[SlotRecord, ...]
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Per-slot series
    # ------------------------------------------------------------------ #
    def per_slot_costs(self) -> List[int]:
        """Cost ``c_t`` of every slot."""
        return [record.cost for record in self.records]

    def cumulative_costs(self) -> List[float]:
        """Cumulative qubit usage after each slot (Fig. 3c)."""
        return list(np.cumsum([record.cost for record in self.records], dtype=float))

    def per_slot_utilities(self) -> List[float]:
        """Utility ``u(r_t, N_t)`` of every slot."""
        return [record.utility for record in self.records]

    def running_average_utility(self) -> List[float]:
        """Running average of per-slot utility up to each slot (Fig. 3a)."""
        utilities = np.asarray(
            [record.utility if math.isfinite(record.utility) else np.nan for record in self.records]
        )
        sums = np.nancumsum(utilities)
        counts = np.arange(1, len(utilities) + 1)
        return list(sums / counts)

    def running_average_success_rate(self) -> List[float]:
        """Running average of the mean EC success probability (Fig. 3b)."""
        rates = np.asarray([record.mean_success_probability for record in self.records])
        return list(np.cumsum(rates) / np.arange(1, len(rates) + 1))

    def queue_lengths(self) -> List[Optional[float]]:
        """The policy's virtual-queue length at each slot (None for baselines)."""
        return [record.queue_length for record in self.records]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_cost(self) -> float:
        """Total qubits spent over the run."""
        return float(sum(record.cost for record in self.records))

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
        utilities = [r.utility for r in self.records if math.isfinite(r.utility)]
        if not utilities:
            return float("-inf")
        return float(np.mean(utilities))

    def average_success_rate(self) -> float:
        """Mean analytic EC success probability over every request of the run."""
        probabilities = self.all_success_probabilities(include_unserved=True)
        if not probabilities:
            return 0.0
        return float(np.mean(probabilities))

    def realized_success_rate(self) -> float:
        """Fraction of all requests whose EC actually materialised."""
        total_requests = sum(record.num_requests for record in self.records)
        if total_requests == 0:
            return 0.0
        total_successes = sum(sum(record.realized_successes) for record in self.records)
        return total_successes / total_requests

    def all_success_probabilities(self, include_unserved: bool = True) -> List[float]:
        """Per-request analytic success probabilities across the run (Fig. 4).

        When ``include_unserved`` is true, every unserved request contributes
        a zero.
        """
        values: List[float] = []
        for record in self.records:
            values.extend(record.success_probabilities)
            if include_unserved:
                values.extend([0.0] * record.num_unserved)
        return values

    def served_fraction(self) -> float:
        """Fraction of requests that received a route and allocation."""
        total = sum(record.num_requests for record in self.records)
        if total == 0:
            return 1.0
        served = sum(record.num_served for record in self.records)
        return served / total

    def fairness(self) -> float:
        """Jain's index over the per-request success probabilities (unserved
        = 0); a run without requests is trivially fair, as all-zero input is."""
        values = self.all_success_probabilities(include_unserved=True)
        return jain_fairness_index(values) if values else 1.0

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
        return any(record.delivered_successes for record in self.records)

    def delivered_success_rate(self) -> float:
        """Fraction of all requests whose end-to-end pair was physically delivered."""
        total_requests = sum(record.num_requests for record in self.records)
        if total_requests == 0:
            return 0.0
        total = sum(sum(record.delivered_successes) for record in self.records)
        return total / total_requests

    def fidelity_served_rate(self) -> float:
        """Fraction of all requests delivered at or above the fidelity target.

        Equals :meth:`delivered_success_rate` when no target is configured
        (every delivery then counts as fidelity-served).
        """
        total_requests = sum(record.num_requests for record in self.records)
        if total_requests == 0:
            return 0.0
        total = sum(sum(record.fidelity_served) for record in self.records)
        return total / total_requests

    def all_delivered_fidelities(self, delivered_only: bool = True) -> List[float]:
        """Per-request delivered fidelities pooled over the run (Fig. 9).

        ``delivered_only`` keeps only materialised deliveries; otherwise
        failed requests contribute their recorded 0.
        """
        values: List[float] = []
        for record in self.records:
            for delivered, fidelity in zip(
                record.delivered_successes, record.delivered_fidelities
            ):
                if delivered or not delivered_only:
                    values.append(fidelity)
        return values

    def mean_delivered_fidelity(self) -> float:
        """Mean fidelity over delivered requests (0 when nothing was delivered)."""
        fidelities = self.all_delivered_fidelities(delivered_only=True)
        if not fidelities:
            return 0.0
        return float(np.mean(fidelities))

    def wall_time_s(self) -> Optional[float]:
        """Simulated wall-clock span covered by this run's records, in seconds.

        Derived from the :class:`SlotClock` stamps
        (``slot_start_s``/``slot_end_s``): the span from the earliest
        stamped slot start to the latest stamped slot end.  ``None`` when no
        record carries stamps — legacy payloads predating the timestamps
        round-trip through here safely.
        """
        starts = [r.slot_start_s for r in self.records if r.slot_start_s is not None]
        ends = [r.slot_end_s for r in self.records if r.slot_end_s is not None]
        if not starts or not ends:
            return None
        return float(max(ends) - min(starts))

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
