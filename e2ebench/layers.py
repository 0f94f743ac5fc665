"""Per-layer attribution from outside the program.

A traced process wraps the entry points listed in :data:`LAYER_TARGETS`
before it builds the scenario.  Every wrapped call is a span; a span's self
time is its duration minus the time its nested wrapped calls cover, so the
self times of all layers never double count.  Self time is split by phase:

* ``setup`` — before the first slot completes,
* ``run``   — from the first completed slot to ``Session.run`` returning,
* ``report`` — afterwards.

The ``run`` self times of all layers plus the un-wrapped remainder
(``unattributed_s``) add up to ``run_s`` exactly.

Most targets are public.  The scheduler and the event backend expose no
public per-stage call for four stages, so these private methods are wrapped
by name: ``_Shard.advance``, ``ServingSimulator._resolve_route``,
``EventDrivenSimulator._launch_protocols`` and
``EventDrivenSimulator._realize_physical``.  A target that no longer exists
is reported as missing and its layer reads 0; the run still completes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Optional, Tuple

#: Layer metric → the (module, qualified name) entry points it wraps.  A
#: method target also wraps every override in the class's subclasses.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "network.build_graph": (("repro.network.topology", "build_topology"),),
    "network.candidate_routes": (("repro.network.routes", "build_candidate_routes"),),
    "workload.build_trace": (("repro.workload.traces", "generate_trace"),),
    "workload.routes_for": (("repro.workload.traces", "WorkloadTrace.routes_for"),),
    "core.decide": (("repro.core.policy", "RoutingPolicy.decide"),),
    "solvers.bind": (("repro.solvers.kernel", "KernelCache.bind"),),
    "solvers.combo_for": (("repro.solvers.kernel", "CompiledStructure.combo_for"),),
    "solvers.best_of": (("repro.solvers.kernel", "SlotKernel.best_of"),),
    "solvers.gibbs_select": (("repro.core.route_selection", "GibbsRouteSelector.select"),),
    "link.realize": (("repro.simulation.link_layer", "LinkLayerSimulator.realize_routes"),),
    "physical.chain": (
        ("repro.simulation.physical", "PhysicalEngine.realize_decision"),
        ("repro.simulation.eventsim", "EventDrivenSimulator._realize_physical"),
    ),
    "eventsim.protocols": (
        ("repro.simulation.eventsim", "EventDrivenSimulator._launch_protocols"),
        ("repro.simulation.eventsim", "SlotBridge.open_slot"),
        ("repro.simulation.eventsim", "SlotBridge.close_slot"),
    ),
    "faults.build": (("repro.faults.model", "FaultSchedule.build"),),
    "faults.filter": (
        ("repro.faults.model", "FaultSchedule.state_at"),
        ("repro.faults.model", "FaultSchedule.filter_routes"),
    ),
    "serving.arrivals": (("repro.serving.arrivals", "ArrivalProcess.joins"),),
    "serving.admit": (("repro.serving.admission", "AdmissionPolicy.admit"),),
    "serving.shards": (("repro.serving.scheduler", "_Shard.advance"),),
    "serving.resolve_route": (("repro.serving.scheduler", "ServingSimulator._resolve_route"),),
}

#: The layers whose work is mostly set-up; their set-up self time is
#: reported on its own (``setup.<layer>_s``).
SETUP_LAYERS = (
    "network.build_graph",
    "network.candidate_routes",
    "workload.build_trace",
    "faults.build",
)

PHASES = ("setup", "run", "report")

#: The layers whose per-call durations are kept, for latency percentiles.
TIMED_LAYERS = ("core.decide",)


def _overlap(start: float, end: float, low: float, high: float) -> float:
    return max(0.0, min(end, high) - max(start, low))


class SpanLedger:
    """Self time per layer and phase, with call counts and per-call times."""

    def __init__(self):
        self.run_start: Optional[float] = None
        self.run_end: Optional[float] = None
        self.self_s: Dict[str, List[float]] = {name: [0.0, 0.0, 0.0] for name in LAYER_TARGETS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_TARGETS}
        self.call_ms: Dict[str, List[float]] = {name: [] for name in TIMED_LAYERS}
        self._stack: List[list] = []

    def _phases(self, start: float, end: float) -> List[float]:
        # A boundary not reached yet lies in the future.
        never = float("inf")
        run_start = never if self.run_start is None else self.run_start
        run_end = never if self.run_end is None else self.run_end
        return [
            _overlap(start, end, -never, run_start),
            _overlap(start, end, run_start, run_end),
            _overlap(start, end, run_end, never),
        ]

    def wrap(self, name: str, function):
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            # A call nested directly in the same layer (an override calling
            # super(), a wrapper policy) is one call of that layer.
            if not stack or stack[-1][0] != name:
                self.calls[name] += 1
            frame = [name, time.monotonic(), [0.0, 0.0, 0.0]]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans = self._phases(frame[1], end)
                totals = self.self_s[name]
                for index, (span, child) in enumerate(zip(spans, frame[2])):
                    totals[index] += span - child
                if stack:
                    parent = stack[-1][2]
                    for index, span in enumerate(spans):
                        parent[index] += span
                timings = self.call_ms.get(name)
                if timings is not None and (not stack or stack[-1][0] != name):
                    timings.append(1000.0 * (end - frame[1]))

        return wrapper

    def report(self) -> Dict[str, object]:
        return {
            "self_s": {
                name: dict(zip(PHASES, values)) for name, values in self.self_s.items()
            },
            "calls": dict(self.calls),
            "call_ms": {name: list(values) for name, values in self.call_ms.items()},
        }


def _all_subclasses(cls) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _wrap_method(ledger: SpanLedger, name: str, owner: type, attribute: str) -> int:
    wrapped = 0
    for cls in _all_subclasses(owner):
        raw = cls.__dict__.get(attribute)
        if raw is None:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(ledger.wrap(name, raw.__func__))
        else:
            replacement = ledger.wrap(name, raw)
        setattr(cls, attribute, replacement)
        wrapped += 1
    return wrapped


def _wrap_function(ledger: SpanLedger, name: str, module, attribute: str) -> int:
    # The function is also bound by ``from ... import`` in other modules:
    # rebind every loaded ``repro`` module attribute that is the original.
    original = getattr(module, attribute)
    replacement = ledger.wrap(name, original)
    wrapped = 0
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)
                wrapped += 1
    return wrapped


def install(ledger: SpanLedger) -> List[str]:
    """Wrap every target of :data:`LAYER_TARGETS`; returns the missing ones."""
    missing: List[str] = []
    for name, targets in LAYER_TARGETS.items():
        for module_name, qualified in targets:
            label = f"{module_name}.{qualified}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(label)
                continue
            owner_name, _, attribute = qualified.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                found = (
                    _wrap_method(ledger, name, owner, attribute)
                    if isinstance(owner, type)
                    else 0
                )
            elif callable(getattr(module, attribute, None)):
                found = _wrap_function(ledger, name, module, attribute)
            else:
                found = 0
            if not found:
                missing.append(label)
    return missing


# --------------------------------------------------------------------------- #
# -X importtime
# --------------------------------------------------------------------------- #
#: A line the traced process writes to stderr when its run phase starts, so
#: imports made during the run are not counted as set-up imports.
RUN_MARKER = "e2ebench: run phase"


def _family(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def import_seconds(stderr: str) -> Dict[str, float]:
    """Set-up import time of ``repro`` and of ``scipy`` from ``-X importtime``.

    ``repro`` is the cumulative time of every top-level ``repro`` import
    (scipy included, as repro imports it); ``scipy`` sums the cumulative
    time of each scipy import whose importer is not scipy itself.
    """
    entries: List[Tuple[int, str, float]] = []
    for line in stderr.splitlines():
        if line.startswith(RUN_MARKER):
            break
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3:
            continue
        try:
            cumulative_us = float(fields[1])
        except ValueError:
            continue  # the column header
        label = fields[2]
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        entries.append((depth, label.strip(), cumulative_us / 1e6))
    totals = {"repro": 0.0, "scipy": 0.0}
    # importtime prints children before their parent: walking backwards
    # visits every parent before its children.
    parents: List[str] = []
    for depth, module, seconds in reversed(entries):
        del parents[depth:]
        parent = parents[-1] if parents else ""
        parents.append(module)
        if depth == 0 and _family(module, "repro"):
            totals["repro"] += seconds
        if _family(module, "scipy") and not _family(parent, "scipy"):
            totals["scipy"] += seconds
    return totals
