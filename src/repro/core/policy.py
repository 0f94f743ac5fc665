"""The routing-policy interface shared by OSCAR and all baselines.

A policy is an online decision maker: at the start of each slot it receives
a :class:`~repro.core.problem.SlotContext` (the current EC requests,
resource availability and candidate routes — nothing about the future) and
must return a :class:`~repro.core.problem.SlotDecision`.  Policies may keep
internal state across slots (OSCAR keeps its virtual queue, the adaptive
baseline its remaining budget); :meth:`RoutingPolicy.reset` re-initialises
that state before a fresh run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.core.problem import SlotContext, SlotDecision
from repro.network.graph import QDNGraph
from repro.utils.rng import SeedLike


class RoutingPolicy(ABC):
    """Online entanglement-routing policy."""

    #: Human-readable name used in reports and figures.
    name: str = "policy"

    @abstractmethod
    def reset(self, graph: QDNGraph, horizon: int) -> None:
        """Prepare the policy for a fresh run of ``horizon`` slots on ``graph``."""

    @abstractmethod
    def decide(self, context: SlotContext, seed: SeedLike = None) -> SlotDecision:
        """Make the joint route-selection and allocation decision for one slot.

        Implementations must update their internal state (virtual queues,
        spent budget, …) as part of this call, using the decision they
        return; the simulator calls ``decide`` exactly once per slot, in
        slot order.
        """

    def diagnostics(self) -> dict:
        """Optional per-run diagnostics (queue history, spending, …)."""
        return {}

    def queue_length(self) -> Optional[float]:
        """The current virtual-queue length, or ``None`` for a policy without one.

        Read into every slot record, so it must not build :meth:`diagnostics`.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
