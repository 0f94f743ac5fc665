"""Online admission control for serving runs.

New sessions are gated *before* they reach the scheduler.  The decision
signal is the same Lyapunov machinery OSCAR already pays for per slot: the
serving loop feeds every slot's realised cost into a
:class:`~repro.core.virtual_queue.VirtualQueue` (``q ← max(0, q + c −
C/T)``), and the queue length — the accumulated budget deficit — is what an
:class:`AdmissionPolicy` sees in its :class:`AdmissionState`.

Policies are registered by name exactly like routing policies
(:mod:`repro.api.registry`): :func:`register_admission_policy` adds new
ones, :func:`make_admission_policy` builds by name with aliases and
did-you-mean suggestions on typos.
"""

from __future__ import annotations

import difflib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

from repro.serving.arrivals import SessionSpec
from repro.utils.validation import check_non_negative

#: A factory builds a fresh policy from keyword parameters.
AdmissionFactory = Callable[..., "AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionState:
    """What an admission policy observes when a session asks to join.

    ``backlog`` is the Lyapunov virtual-queue length (the budget deficit) at
    the start of the scheduler's merge window; ``pending_requests`` the
    total request backlog of the session table then; ``active_sessions``
    the sessions currently admitted and not yet departed.  With a merge
    window of ``k`` slots the first two signals are up to ``k−1`` slots
    stale — admission sees the network the way a periodically-synchronised
    control plane would.

    ``availability`` is the fraction of network elements (nodes + edges)
    currently up, ``1.0`` when no fault schedule is attached — the signal
    the :class:`AvailabilityGate` uses to shed load during outages.
    """

    t: int
    backlog: float
    pending_requests: int
    active_sessions: int
    availability: float = 1.0


class AdmissionPolicy(ABC):
    """Decides, per join attempt, whether a session enters the scheduler."""

    #: Canonical registry name (set by subclasses).
    name: str = "admission"

    def reset(self) -> None:
        """Clear internal state before a fresh run."""

    def on_slot(self, t: int) -> None:
        """Per-slot tick (token refills and the like); called once per slot."""

    @abstractmethod
    def admit(self, spec: SessionSpec, state: AdmissionState) -> bool:
        """Whether the session described by ``spec`` may join."""


@dataclass
class AlwaysAdmit(AdmissionPolicy):
    """Admit every session (the open-door baseline)."""

    name: str = field(default="always", init=False)

    def admit(self, spec: SessionSpec, state: AdmissionState) -> bool:
        return True


@dataclass
class BacklogThreshold(AdmissionPolicy):
    """Admit while the Lyapunov virtual queue is at or below a threshold.

    The virtual queue accumulates budget over-spending, so refusing joins
    while it is long sheds exactly the load that threatens the long-term
    budget constraint — the serving-layer analogue of OSCAR pricing cost by
    queue length.
    """

    threshold: float = 200.0
    name: str = field(default="backlog-threshold", init=False)

    def __post_init__(self) -> None:
        check_non_negative(self.threshold, "threshold")

    def admit(self, spec: SessionSpec, state: AdmissionState) -> bool:
        return state.backlog <= self.threshold


@dataclass
class TokenBucket(AdmissionPolicy):
    """Classic token bucket: ``rate`` tokens per slot, burst capacity ``burst``.

    Each admission consumes one token; joins beyond the refill rate are
    rejected once the burst allowance is spent.  Bounds the session join
    *rate* irrespective of network state.
    """

    rate: float = 1.0
    burst: float = 4.0
    name: str = field(default="token-bucket", init=False)

    def __post_init__(self) -> None:
        check_non_negative(self.rate, "rate")
        check_non_negative(self.burst, "burst")
        self._tokens = float(self.burst)

    def reset(self) -> None:
        self._tokens = float(self.burst)

    def on_slot(self, t: int) -> None:
        self._tokens = min(float(self.burst), self._tokens + float(self.rate))

    def admit(self, spec: SessionSpec, state: AdmissionState) -> bool:
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class AvailabilityGate(AdmissionPolicy):
    """Shed joins while the network is degraded below ``min_availability``.

    During an outage the sessions already admitted keep whatever service
    the surviving elements allow; refusing *new* joins until availability
    recovers keeps the backlog from growing against capacity that is not
    there.  Above the availability floor the gate degenerates to the
    :class:`BacklogThreshold` rule, so fault-free runs behave like the
    default policy.
    """

    min_availability: float = 0.9
    threshold: float = 200.0
    name: str = field(default="availability-gate", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_availability <= 1.0:
            raise ValueError(
                f"min_availability must be in [0, 1], got {self.min_availability}"
            )
        check_non_negative(self.threshold, "threshold")

    def admit(self, spec: SessionSpec, state: AdmissionState) -> bool:
        if state.availability < self.min_availability:
            return False
        return state.backlog <= self.threshold


class UnknownAdmissionPolicyError(KeyError):
    """Raised when an admission-policy name is not registered."""

    def __init__(self, name: str, known: Iterable[str]):
        known = sorted(known)
        message = (
            f"unknown admission policy {name!r}; "
            f"registered: {', '.join(known)}"
        )
        suggestions = difflib.get_close_matches(name, known, n=3)
        if suggestions:
            message += f" (did you mean {' or '.join(repr(s) for s in suggestions)}?)"
        super().__init__(message)
        self.name = name
        self.known = tuple(known)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

    def __reduce__(self):
        return (type(self), (self.name, self.known))


def _normalise(name: str) -> str:
    return name.strip().lower().replace("_", "-").replace(" ", "-")


_FACTORIES: Dict[str, AdmissionFactory] = {}
_ALIASES: Dict[str, str] = {}


def register_admission_policy(
    name: str, factory: AdmissionFactory = None, *, aliases: Iterable[str] = ()
):
    """Register an admission-policy factory (decorator-friendly)."""
    if factory is None:
        def decorator(target):
            register_admission_policy(name, target, aliases=aliases)
            return target
        return decorator
    canonical = _normalise(name)
    _FACTORIES[canonical] = factory
    for alias in aliases:
        _ALIASES[_normalise(alias)] = canonical
    return factory


def canonical_admission_name(name: str) -> str:
    """Resolve aliases/spelling to the canonical admission-policy name."""
    spelling = _normalise(name)
    spelling = _ALIASES.get(spelling, spelling)
    if spelling not in _FACTORIES:
        raise UnknownAdmissionPolicyError(name, _FACTORIES)
    return spelling


def make_admission_policy(name: str, **kwargs: object) -> AdmissionPolicy:
    """Build a fresh admission policy by registered name."""
    return _FACTORIES[canonical_admission_name(name)](**kwargs)


def available_admission_policies() -> Tuple[str, ...]:
    """Canonical names of every registered admission policy (sorted)."""
    return tuple(sorted(_FACTORIES))


register_admission_policy("always", AlwaysAdmit, aliases=("always-admit", "open"))
register_admission_policy(
    "backlog-threshold", BacklogThreshold, aliases=("backlog", "lyapunov")
)
register_admission_policy("token-bucket", TokenBucket, aliases=("token", "bucket"))
register_admission_policy(
    "availability-gate", AvailabilityGate, aliases=("availability", "avail")
)
