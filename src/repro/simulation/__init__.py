"""Simulators: the batched link layer, the per-slot pipeline every
slot-driven simulator shares, the slot-based network simulator that drives
every experiment in the paper, the physical delivery chain
(swap/purify/decohere with delivered-fidelity accounting) both backends
run, and the event backend that times the classical signalling of each
slot in closed form on top of the same record schema."""

from repro.simulation.clock import SlotClock
from repro.simulation.link_layer import LinkLayerSimulator, RouteRealization
from repro.simulation.physical import (
    PhysicalEngine,
    PhysicalModel,
    PhysicalSlotOutcome,
    PhysicalStats,
    ReferencePhysicalEngine,
)
from repro.simulation.results import SlotRecord, SimulationResult
from repro.simulation.engine import (
    BACKEND_KINDS,
    SlottedSimulator,
    build_simulator,
    simulate_policies,
)
from repro.simulation.eventsim import (
    EventDrivenSimulator,
    EventStats,
    TimingModel,
    edge_latency_key,
)

__all__ = [
    "SlotClock",
    "LinkLayerSimulator",
    "RouteRealization",
    "PhysicalEngine",
    "PhysicalModel",
    "PhysicalSlotOutcome",
    "PhysicalStats",
    "ReferencePhysicalEngine",
    "SlotRecord",
    "SimulationResult",
    "BACKEND_KINDS",
    "SlottedSimulator",
    "build_simulator",
    "simulate_policies",
    "EventDrivenSimulator",
    "EventStats",
    "TimingModel",
    "edge_latency_key",
]
