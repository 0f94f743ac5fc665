"""Streaming session arrivals: the open-system workload source.

A serving run replaces the fixed per-slot request sets of the batch
simulators with *sessions*: users that join the network mid-run, issue EC
requests at their own rate for the duration of their lifetime, optionally
renew, and depart.  An :class:`ArrivalProcess` generates the joins; each
join is a frozen :class:`SessionSpec` carrying everything the scheduler
needs to replay the session deterministically — including the session's own
seed, derived as ``derive_seed(base_seed, "session", session_id)``.

Determinism contract: the arrival stream itself draws only from one
generator seeded with ``derive_seed(base_seed, "arrivals")``, and every
session's private stream is a pure function of its id, so no session's
draws depend on which other sessions are active.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.graph import NodeName, QDNGraph
from repro.utils.rng import as_generator, derive_seed
from repro.utils.validation import check_non_negative, check_positive, check_probability
from repro.workload.requests import _sample_distinct_pair


@dataclass(frozen=True)
class SessionSpec:
    """One admitted-or-rejected session: a user joining the network.

    ``seed`` is the session's private stream seed; every draw the session
    makes (request counts, request realisations, renewals) comes from a
    generator built from it, so the session's whole trajectory is a pure
    function of this spec and of its route's outages.
    """

    session_id: int
    joined_slot: int
    source: NodeName
    destination: NodeName
    request_rate: float
    lifetime: int
    renew_probability: float
    seed: int

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("session source and destination must differ")
        check_non_negative(self.request_rate, "request_rate")
        check_positive(self.lifetime, "lifetime")
        check_probability(self.renew_probability, "renew_probability")

    @property
    def endpoints(self) -> Tuple[NodeName, NodeName]:
        """The unordered endpoint pair, in canonical order."""
        a, b = sorted((self.source, self.destination), key=repr)
        return (a, b)


class ArrivalProcess(ABC):
    """Generates the session joins of each slot (see module docstring)."""

    def reset(self, graph: QDNGraph, base_seed: int) -> None:
        """Bind the process to one run: graph, arrival stream, id counter."""
        self._graph = graph
        self._base_seed = int(base_seed)
        self._rng = as_generator(derive_seed(base_seed, "arrivals"))
        self._next_id = 0

    @abstractmethod
    def joins(self, t: int) -> List[SessionSpec]:
        """The sessions joining at slot ``t`` (call :meth:`reset` first)."""

    # ------------------------------------------------------------------ #
    # Shared helpers for subclasses
    # ------------------------------------------------------------------ #
    def _sample_lifetime(self, mean_lifetime: float) -> int:
        """A geometric lifetime (in slots) with the configured mean, >= 1."""
        if mean_lifetime <= 1.0:
            return 1
        return max(1, int(self._rng.geometric(1.0 / mean_lifetime)))

    def _make_session(
        self, t: int, request_rate: float, mean_lifetime: float, renew_probability: float
    ) -> SessionSpec:
        session_id = self._next_id
        self._next_id += 1
        source, destination = _sample_distinct_pair(self._graph.nodes, self._rng)
        return SessionSpec(
            session_id=session_id,
            joined_slot=t,
            source=source,
            destination=destination,
            request_rate=request_rate,
            lifetime=self._sample_lifetime(mean_lifetime),
            renew_probability=renew_probability,
            seed=derive_seed(self._base_seed, "session", session_id),
        )


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Poisson session joins: ``k_t ~ Poisson(arrival_rate)`` per slot.

    Each join samples uniform distinct endpoints, a geometric lifetime with
    mean ``mean_lifetime`` slots, and carries the configured per-slot
    request rate and renewal probability.  ``arrival_rate=0`` is a valid
    silent source (useful for drain tests).
    """

    arrival_rate: float = 0.5
    request_rate: float = 2.0
    mean_lifetime: float = 20.0
    renew_probability: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.arrival_rate, "arrival_rate")
        check_non_negative(self.request_rate, "request_rate")
        check_positive(self.mean_lifetime, "mean_lifetime")
        check_probability(self.renew_probability, "renew_probability")

    def joins(self, t: int) -> List[SessionSpec]:
        count = int(self._rng.poisson(self.arrival_rate)) if self.arrival_rate > 0 else 0
        return [
            self._make_session(
                t, self.request_rate, self.mean_lifetime, self.renew_probability
            )
            for _ in range(count)
        ]


@dataclass
class TraceArrivals(ArrivalProcess):
    """Trace-driven session joins: a fixed per-slot join-count schedule.

    ``schedule[t % len(schedule)]`` sessions join at slot ``t`` (the
    schedule cycles, so a short trace drives an arbitrarily long run; an
    empty schedule is a silent source).  Endpoints and lifetimes are still
    sampled from the arrival stream, so two runs of the same trace and seed
    are identical.
    """

    schedule: Tuple[int, ...] = ()
    request_rate: float = 2.0
    mean_lifetime: float = 20.0
    renew_probability: float = 0.0

    def __post_init__(self) -> None:
        self.schedule = tuple(int(count) for count in self.schedule)
        for position, count in enumerate(self.schedule):
            check_non_negative(count, f"schedule[{position}]")
        check_non_negative(self.request_rate, "request_rate")
        check_positive(self.mean_lifetime, "mean_lifetime")
        check_probability(self.renew_probability, "renew_probability")

    def joins(self, t: int) -> List[SessionSpec]:
        if not self.schedule:
            return []
        count = self.schedule[t % len(self.schedule)]
        return [
            self._make_session(
                t, self.request_rate, self.mean_lifetime, self.renew_probability
            )
            for _ in range(count)
        ]


#: Named arrival kinds accepted by the serving configuration.
ARRIVAL_KINDS: Tuple[str, ...] = ("poisson", "trace")


def build_arrivals(
    kind: str,
    arrival_rate: float = 0.5,
    arrival_trace: Optional[Sequence[int]] = None,
    request_rate: float = 2.0,
    mean_lifetime: float = 20.0,
    renew_probability: float = 0.0,
) -> ArrivalProcess:
    """Instantiate the arrival process of one serving configuration."""
    kind = str(kind).strip().lower()
    if kind == "poisson":
        return PoissonArrivals(
            arrival_rate=arrival_rate,
            request_rate=request_rate,
            mean_lifetime=mean_lifetime,
            renew_probability=renew_probability,
        )
    if kind == "trace":
        return TraceArrivals(
            schedule=tuple(arrival_trace or ()),
            request_rate=request_rate,
            mean_lifetime=mean_lifetime,
            renew_probability=renew_probability,
        )
    raise ValueError(
        f"unknown arrival kind {kind!r}; choose from {', '.join(ARRIVAL_KINDS)}"
    )
