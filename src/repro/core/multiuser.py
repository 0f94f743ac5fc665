"""Multi-user operation of a shared QDN.

The paper optimises routing for a *single* user and models everyone else as
an exogenous occupancy process ("some qubits may be occupied by other
users", Sec. III-A).  This module closes that loop: several users — each
with its own request process, budget and routing policy (OSCAR or a
baseline) — share one QDN, and what one user allocates in a slot is simply
unavailable to the users served after it in that slot.

The provider grants access in a rotating (round-robin) priority order so no
user is permanently first; from each individual user's perspective the
others' consumption looks exactly like the exogenous availability process
the paper assumes, which makes this a faithful multi-tenant extension rather
than a different problem.

The tenants are this driver's request source; each tenant is one lane
through the per-slot step every driver shares
(:class:`~repro.simulation.pipeline.SlotPipeline`), so faults, the
invariant guard, telemetry and the physical layer run for tenants exactly
as for a single user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.policy import RoutingPolicy
from repro.core.problem import SlotDecision
from repro.faults.model import FaultSchedule
from repro.network.graph import EdgeKey, NodeName, QDNGraph, ResourceSnapshot
from repro.network.routes import Route, build_candidate_routes
from repro.simulation.clock import SlotClock
from repro.simulation.physical import PhysicalModel
from repro.simulation.pipeline import RunEnvelope, SlotPipeline
from repro.simulation.results import SimulationResult
from repro.telemetry.tracer import TelemetryModel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive
from repro.workload.requests import RequestProcess, SDPair, UniformRequestProcess


@dataclass
class QDNUser:
    """One tenant of the QDN: a policy, a workload and a budget."""

    name: str
    policy: RoutingPolicy
    request_process: RequestProcess = field(default_factory=UniformRequestProcess)
    total_budget: float = 5000.0

    def __post_init__(self) -> None:
        check_non_negative(self.total_budget, "total_budget")
        if not self.name:
            raise ValueError("a user needs a non-empty name")


@dataclass(frozen=True)
class ProviderSlotRecord:
    """Provider-side view of one slot: aggregate utilisation across users."""

    t: int
    qubit_utilisation: float
    channel_utilisation: float
    total_cost: int
    served_requests: int
    total_requests: int


@dataclass(frozen=True)
class MultiUserOutcome:
    """Results of a multi-user run: one result per user plus the provider view."""

    user_results: Mapping[str, SimulationResult]
    provider_records: Tuple[ProviderSlotRecord, ...]

    def provider_average_utilisation(self) -> Dict[str, float]:
        """Mean qubit and channel utilisation over the horizon."""
        if not self.provider_records:
            return {"qubits": 0.0, "channels": 0.0}
        qubit = sum(r.qubit_utilisation for r in self.provider_records) / len(self.provider_records)
        channel = sum(r.channel_utilisation for r in self.provider_records) / len(self.provider_records)
        return {"qubits": qubit, "channels": channel}

    def total_served_fraction(self) -> float:
        """Fraction of all users' requests that were served."""
        served = sum(r.served_requests for r in self.provider_records)
        total = sum(r.total_requests for r in self.provider_records)
        return served / total if total else 1.0


def _subtract_decision(
    qubits: Dict[NodeName, int], channels: Dict[EdgeKey, int], decision: SlotDecision
) -> None:
    """Remove a decision's resource usage from the remaining availability."""
    for node, used in decision.node_usage().items():
        qubits[node] = max(0, qubits[node] - used)
    for key, used in decision.edge_usage().items():
        channels[key] = max(0, channels[key] - used)


@dataclass
class MultiUserSimulator(SlotPipeline):
    """Simulates several users sharing one QDN over a common horizon.

    Parameters
    ----------
    graph:
        The shared QDN.
    users:
        The tenants, in their base priority order; the actual service order
        rotates by one position each slot so that average priority is equal.
    horizon:
        Number of slots.
    num_candidate_routes / max_extra_hops:
        Candidate-set construction parameters (shared by every user, as the
        provider would pre-compute them).
    realize:
        Monte-Carlo-realise every EC (adds realized success information).
    physical:
        Optional :class:`~repro.simulation.physical.PhysicalModel`: when set
        every tenant's realised ECs additionally run the physical delivery
        chain (each user gets its own engine so the provider can account
        physical resources per tenant).  Requires ``realize=True``; when
        ``None`` the run consumes exactly the historical random streams.
    clock / faults / guard_level / telemetry:
        As for :class:`~repro.simulation.engine.SlottedSimulator`.  One fault
        schedule, guard and tracer serve the whole run; the run-level fault,
        guard and telemetry diagnostics ride the first user's result, so
        merging the users' results counts them once.
    """

    graph: QDNGraph
    users: Sequence[QDNUser]
    horizon: int = 50
    num_candidate_routes: int = 4
    max_extra_hops: Optional[int] = 2
    realize: bool = True
    physical: Optional[PhysicalModel] = None
    clock: Optional[SlotClock] = None
    faults: Optional[FaultSchedule] = None
    guard_level: str = "off"
    telemetry: Optional[TelemetryModel] = None

    def __post_init__(self) -> None:
        check_positive(self.horizon, "horizon")
        if not self.users:
            raise ValueError("at least one user is required")
        names = [user.name for user in self.users]
        if len(set(names)) != len(names):
            raise ValueError("user names must be unique")
        if self.clock is None:
            self.clock = SlotClock(attempts_per_slot=self.graph.attempts_per_slot)
        self._route_cache: Dict[Tuple[NodeName, NodeName], Tuple[Route, ...]] = {}

    # ------------------------------------------------------------------ #
    # Candidate routes
    # ------------------------------------------------------------------ #
    def _routes_for(self, request: SDPair) -> Tuple[Route, ...]:
        endpoints = request.endpoints
        if endpoints not in self._route_cache:
            computed = build_candidate_routes(
                self.graph,
                [endpoints],
                num_routes=self.num_candidate_routes,
                max_extra_hops=self.max_extra_hops,
            )
            self._route_cache[endpoints] = tuple(computed[endpoints])
        return self._route_cache[endpoints]

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(
        self,
        seed: SeedLike = None,
        on_slot: Optional[Callable[[ProviderSlotRecord], Optional[bool]]] = None,
    ) -> MultiUserOutcome:
        """Run the shared simulation and return per-user and provider results.

        ``on_slot`` receives the provider-side record of every slot as it
        completes; returning ``False`` stops the simulation early (every
        user's records then cover only the slots simulated so far).
        """
        graph = self.graph
        envelope = RunEnvelope(self.guard_level, self.telemetry, self.faults)
        with envelope.active():
            # The tenants share the request, decision, realization and
            # physical streams, drawn from in service order.
            request_rng, *streams = self._streams(seed, leading=1)
            tenants = [
                (user, self._lane(user.policy, streams, envelope.tracer))
                for user in self.users
            ]
            for user in self.users:
                user.policy.reset(graph, self.horizon)
                user.request_process.reset()

            provider_records: List[ProviderSlotRecord] = []
            total_qubits = sum(graph.qubit_capacity(node) for node in graph.nodes)
            total_channels = sum(graph.channel_capacity(key) for key in graph.edges)
            for t in range(self.horizon):
                fault_state = envelope.begin_slot(t)
                remaining_qubits = {node: graph.qubit_capacity(node) for node in graph.nodes}
                remaining_channels = {key: graph.channel_capacity(key) for key in graph.edges}
                slot_cost = 0
                slot_served = 0
                slot_requests = 0
                # Rotate the service order so no user is always first.
                rotation = t % len(tenants)
                for user, lane in tenants[rotation:] + tenants[:rotation]:
                    requests = tuple(user.request_process.sample(t, graph, request_rng))
                    slot_requests += len(requests)
                    # What earlier users took this slot is unavailable here.
                    snapshot = ResourceSnapshot(
                        qubits=dict(remaining_qubits), channels=dict(remaining_channels)
                    )
                    decision = self._step(
                        envelope, lane, t, snapshot, requests, self._routes_for, fault_state
                    )
                    _subtract_decision(remaining_qubits, remaining_channels, decision)
                    slot_cost += decision.cost()
                    slot_served += decision.num_served

                used_qubits = total_qubits - sum(remaining_qubits.values())
                used_channels = total_channels - sum(remaining_channels.values())
                provider_record = ProviderSlotRecord(
                    t=t,
                    qubit_utilisation=used_qubits / total_qubits if total_qubits else 0.0,
                    channel_utilisation=used_channels / total_channels if total_channels else 0.0,
                    total_cost=slot_cost,
                    served_requests=slot_served,
                    total_requests=slot_requests,
                )
                provider_records.append(provider_record)
                if envelope.emit(t, on_slot, provider_record):
                    break
            diagnostics = self._finish(envelope, [lane for _, lane in tenants])

        user_results = {
            user.name: SimulationResult(
                policy_name=f"{user.name}:{user.policy.name}",
                horizon=self.horizon,
                total_budget=user.total_budget,
                columns=lane.slots.build(),
                diagnostics=lane_diagnostics,
            )
            for (user, lane), lane_diagnostics in zip(tenants, diagnostics)
        }
        return MultiUserOutcome(
            user_results=user_results, provider_records=tuple(provider_records)
        )
