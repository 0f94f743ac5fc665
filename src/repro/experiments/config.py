"""Experiment configuration.

:class:`ExperimentConfig` captures every parameter of the paper's default
simulation setup (Sec. V-A) in one frozen-ish dataclass, provides factory
methods for the network, the workload and the policies, and offers scaled
presets: :meth:`ExperimentConfig.paper` reproduces the published setting
(20 nodes, T=200, C=5000, 5 trials) while :meth:`ExperimentConfig.small`
and :meth:`ExperimentConfig.tiny` shrink the horizon and network so the
full pipeline can run inside unit tests and CI benchmarks.
"""

from __future__ import annotations

import dataclasses
import difflib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only (lazy import at runtime)
    from repro.faults import FaultModel, FaultSchedule
    from repro.serving.scheduler import ServingModel

from repro.core.baselines import (
    MyopicAdaptivePolicy,
    MyopicFixedPolicy,
    ShortestRouteUniformPolicy,
    UnconstrainedPolicy,
)
from repro.core.oscar import OscarPolicy
from repro.core.policy import RoutingPolicy
from repro.network.channels import DECOHERENCE_TIME_S
from repro.network.graph import QDNGraph
from repro.simulation.engine import BACKEND_KINDS
from repro.simulation.eventsim import TimingModel
from repro.simulation.physical import ENGINE_KINDS, PhysicalModel
from repro.network.resources import ResourceProcess, StaticResources
from repro.network.store import TopologyStore, default_topology_store
from repro.network.topology import TOPOLOGY_KINDS, CapacityRanges, build_topology
from repro.utils.rng import SeedLike, derive_seed
from repro.utils.validation import check_non_negative, check_positive
from repro.workload.requests import RequestProcess, UniformRequestProcess
from repro.workload.traces import WorkloadTrace, generate_trace
from repro.guard.invariants import GUARD_LEVELS
from repro.telemetry.tracer import TELEMETRY_LEVELS, TelemetryModel


class ConfigError(ValueError):
    """One invalid :class:`ExperimentConfig` field.

    Subclasses :class:`ValueError` so historical ``except ValueError``
    call sites (and tests) keep working, and keeps its message as the sole
    constructor argument so it pickles across worker-pool boundaries.
    """


def _did_you_mean(value: str, options: Sequence[str]) -> str:
    """A ``"; did you mean 'x'?"`` suffix, or empty when nothing is close."""
    matches = difflib.get_close_matches(str(value), list(options), n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


#: Solver switches of earlier releases → the solver path their ``false``
#: value selected.  Both paths are gone; see :meth:`ExperimentConfig.from_dict`.
_REMOVED_SOLVER_SWITCHES = {
    "use_kernel": "the legacy per-combination solver",
    "kernel_cache": "the recompile-per-slot kernel",
}

#: Serving knobs of earlier releases that chose only the scheduler's
#: execution layout (shards and shard worker processes).  No result ever
#: depended on them, so they are dropped at any value.
REMOVED_SERVING_LAYOUT = frozenset(
    {"serving_shards", "serving_shard_workers", "serving_shard_timeout_s"}
)


@contextmanager
def _config_errors() -> Iterator[None]:
    """Re-type any ValueError raised in the block as :class:`ConfigError`."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class ExperimentConfig:
    """All knobs of one experiment, defaulting to the paper's Section V-A values."""

    # --- topology (Sec. V-A1/A2) ---------------------------------------- #
    topology_kind: str = "waxman"
    num_nodes: int = 20
    area: float = 100.0
    waxman_alpha: float = 0.5
    target_degree: float = 4.0
    qubit_capacity_min: int = 10
    qubit_capacity_max: int = 16
    channel_capacity_min: int = 5
    channel_capacity_max: int = 8

    # --- link physics (Sec. V-A2) ---------------------------------------- #
    attempt_success: float = 2.0e-4
    attempts_per_slot: int = 4000

    # --- workload and budget (Sec. V-A2) --------------------------------- #
    horizon: int = 200
    total_budget: float = 5000.0
    min_pairs: int = 1
    max_pairs: int = 5

    # --- candidate routes ------------------------------------------------- #
    num_candidate_routes: int = 4
    max_extra_hops: int = 2

    # --- OSCAR parameters (Sec. V-A2) ------------------------------------- #
    trade_off_v: float = 2500.0
    initial_queue: float = 10.0
    gamma: float = 500.0
    gibbs_iterations: int = 60
    exhaustive_limit: int = 64

    # --- per-slot solver --------------------------------------------------- #
    # ``dual_tolerance`` is the slot kernel's relative duality-gap early-stop
    # threshold; 0 selects replay mode (the fixed iteration schedule from
    # zero multipliers, no warm start).
    # ``solve_deadline`` caps each per-slot solve at a deterministic number
    # of combination evaluations; past it the selector ladder degrades
    # exhaustive → Gibbs → greedy (0 = unlimited, the historical behaviour).
    dual_tolerance: float = 1e-4
    solve_deadline: int = 0

    # --- physical layer (repro.simulation.physical) ------------------------ #
    # ``physical_enabled`` switches on the physical delivery co-simulation:
    # every realised EC additionally runs its swap/purify/decohere chain and
    # the records carry delivered fidelities.  Disabled (the default) the
    # simulators consume exactly the historical random streams, so every
    # existing figure stays byte-identical.  ``physical_fidelity_constrained``
    # additionally wraps registry-built policies so a request only counts as
    # served when its route can deliver ``physical_fidelity_target``.
    physical_enabled: bool = False
    physical_swap_success: float = 1.0
    physical_link_fidelity: float = 0.98
    physical_memory_time: float = DECOHERENCE_TIME_S
    physical_dwell_fraction: float = 0.5
    physical_purify_rounds: int = 0
    physical_cutoff_fidelity: float = 0.0
    physical_fidelity_target: float = 0.0
    physical_fidelity_constrained: bool = False
    physical_engine: str = "vectorized"

    # --- timing / simulation backend (repro.simulation.eventsim) ----------- #
    # ``backend`` selects the simulation backend: the paper's slotted
    # abstraction (default) or the event-driven co-simulation with classical
    # signaling latency.  ``signaling_latency_s`` is the default one-way
    # classical latency per edge; ``edge_latency_s`` overrides it per edge
    # (keys are ``repro.simulation.eventsim.edge_latency_key`` strings so the
    # map survives JSON round trips); ``slot_guard_time_s`` extends each slot
    # beyond the attempt window — the slack available for classical message
    # round-trips.  With zero latency the event backend reproduces the
    # slotted backend's realised outcomes exactly.
    backend: str = "slotted"
    signaling_latency_s: float = 0.0
    edge_latency_s: Optional[Dict[str, float]] = None
    slot_guard_time_s: float = 0.0

    # --- serving layer (repro.serving) ------------------------------------- #
    # ``serving_enabled`` switches a scenario from the closed batch system to
    # the open serving system: sessions stream in (``serving_arrival_kind``
    # "poisson" at ``serving_arrival_rate`` joins/slot, or "trace" replaying
    # ``serving_arrival_trace`` per-slot join counts), each issuing
    # ``serving_session_rate`` EC requests/slot for a geometric lifetime of
    # mean ``serving_session_lifetime`` slots (renewing with probability
    # ``serving_renew_probability``).  Joins are gated by the
    # ``serving_admission`` policy (see repro.serving.admission), which runs
    # once per window of ``serving_merge_every`` slots against the state at
    # the window start; the session table then advances the window's slots.
    serving_enabled: bool = False
    serving_arrival_kind: str = "poisson"
    serving_arrival_rate: float = 0.5
    serving_arrival_trace: Optional[List[int]] = None
    serving_session_rate: float = 2.0
    serving_session_lifetime: float = 20.0
    serving_renew_probability: float = 0.0
    serving_session_budget: float = 8.0
    serving_admission: str = "backlog-threshold"
    serving_admission_threshold: float = 200.0
    serving_token_rate: float = 1.0
    serving_token_burst: float = 4.0
    serving_merge_every: int = 1
    serving_min_availability: float = 0.9

    # --- fault injection (repro.faults) ------------------------------------ #
    # ``fault_enabled`` switches on the deterministic fault-injection layer:
    # nodes and edges suffer transient outages (exponential up-times with
    # mean ``fault_node_mtbf``/``fault_edge_mtbf`` slots, down-times with
    # mean ``fault_mttr`` slots; 0 disables that element class) plus the
    # scripted one-shots in ``fault_outages`` (each a JSON-friendly
    # ``[kind, element, start, duration]`` entry).  The schedule is derived
    # from its own spawned seed, so fault-free runs consume exactly the
    # historical random streams and stay byte-identical.  With
    # ``fault_aware`` (default) policies see the degraded topology — routes
    # over failed elements leave the candidate sets; blind mode keeps the
    # full sets and loses the affected requests at realization time.
    fault_enabled: bool = False
    fault_node_mtbf: float = 0.0
    fault_edge_mtbf: float = 0.0
    fault_mttr: float = 5.0
    fault_outages: Optional[List[List[object]]] = None
    fault_aware: bool = True

    # --- runtime invariant guard (repro.guard) ----------------------------- #
    # ``guard_level`` arms the runtime invariant guard: "off" (the default)
    # builds no guard at all and keeps every table and benchmark
    # byte-identical to the unguarded build; "cheap" runs O(1) per-slot
    # accounting checks; "strict" additionally recomputes constraint rows,
    # the virtual-queue recursion, kernel dual bounds and fault-schedule
    # accounting.  The guard is observational — any level produces identical
    # results or raises.  ``REPRO_GUARD`` overrides the level at run time.
    guard_level: str = "off"

    # --- telemetry (repro.telemetry) ---------------------------------------- #
    # ``telemetry_level`` arms the observability layer: "off" (the default)
    # builds no tracer at all and keeps every table and benchmark
    # byte-identical to the uninstrumented build; "light" aggregates
    # per-span wall/CPU profiles and the metrics registry; "full"
    # additionally keeps a bounded ring of ``telemetry_span_ring`` span
    # events (pid/tid stamped) for Chrome-trace export and crash-bundle
    # attachment.  Telemetry is observational and draws no randomness —
    # any level produces identical results.  ``REPRO_TELEMETRY`` overrides
    # the level at run time, exactly like ``REPRO_GUARD``.
    telemetry_level: str = "off"
    telemetry_span_ring: int = 2048

    # --- experiment bookkeeping ------------------------------------------- #
    trials: int = 5
    base_seed: int = 2024
    realize: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check every field; raises :class:`ConfigError` on the first problem.

        Also invoked by ``__post_init__`` so an ``ExperimentConfig`` can
        never exist in an invalid state, and re-invoked (idempotent, cheap)
        by the Scenario/Study/CLI entry points so configurations rebuilt
        from dictionaries or mutated by hand fail early with one exception
        type.  :class:`ConfigError` subclasses :class:`ValueError` and is
        picklable, so it crosses worker-pool boundaries intact.
        """
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology kind {self.topology_kind!r}; "
                f"choose from {', '.join(TOPOLOGY_KINDS)}"
                f"{_did_you_mean(self.topology_kind, TOPOLOGY_KINDS)}"
            )
        with _config_errors():
            check_positive(self.num_nodes, "num_nodes")
            check_positive(self.horizon, "horizon")
            check_positive(self.trials, "trials")
            check_positive(self.total_budget, "total_budget")
            check_positive(self.attempts_per_slot, "attempts_per_slot")
            check_positive(self.attempt_success, "attempt_success")
            check_positive(self.num_candidate_routes, "num_candidate_routes")
            check_non_negative(self.max_extra_hops, "max_extra_hops")
        if self.min_pairs < 1 or self.max_pairs < self.min_pairs:
            raise ConfigError(
                f"request-pair range [{self.min_pairs}, {self.max_pairs}] is "
                "empty; need 1 <= min_pairs <= max_pairs"
            )
        if self.physical_engine not in ENGINE_KINDS:
            raise ConfigError(
                f"unknown physical engine {self.physical_engine!r}; "
                f"choose from {', '.join(ENGINE_KINDS)}"
                f"{_did_you_mean(self.physical_engine, ENGINE_KINDS)}"
            )
        if self.backend not in BACKEND_KINDS:
            raise ConfigError(
                f"unknown simulation backend {self.backend!r}; "
                f"choose from {', '.join(BACKEND_KINDS)}"
                f"{_did_you_mean(self.backend, BACKEND_KINDS)}"
            )
        if self.guard_level not in GUARD_LEVELS:
            raise ConfigError(
                f"unknown guard level {self.guard_level!r}; "
                f"choose from {', '.join(GUARD_LEVELS)}"
                f"{_did_you_mean(self.guard_level, GUARD_LEVELS)}"
            )
        if self.telemetry_level not in TELEMETRY_LEVELS:
            raise ConfigError(
                f"unknown telemetry level {self.telemetry_level!r}; "
                f"choose from {', '.join(TELEMETRY_LEVELS)}"
                f"{_did_you_mean(self.telemetry_level, TELEMETRY_LEVELS)}"
            )
        if int(self.telemetry_span_ring) <= 0:
            raise ConfigError(
                f"telemetry_span_ring must be positive, got {self.telemetry_span_ring}"
            )
        with _config_errors():
            check_non_negative(self.signaling_latency_s, "signaling_latency_s")
            check_non_negative(self.slot_guard_time_s, "slot_guard_time_s")
            if self.edge_latency_s:
                for key, value in self.edge_latency_s.items():
                    check_non_negative(value, f"edge_latency_s[{key!r}]")
        if self.solve_deadline < 0:
            raise ConfigError(
                f"solve_deadline must be non-negative, got {self.solve_deadline}"
            )
        if self.serving_enabled and self.serving_arrival_rate < 0:
            raise ConfigError(
                "serving_arrival_rate must be non-negative, got "
                f"{self.serving_arrival_rate}"
            )
        if self.fault_enabled and self.fault_mttr <= 0:
            raise ConfigError(
                f"fault_mttr must be positive, got {self.fault_mttr}"
            )
        with _config_errors():
            if self.serving_enabled:
                # Building the model validates every serving field (arrival
                # kind, admission name, merge window) in one place.
                self.serving_model()
            if self.fault_enabled:
                # Likewise: building the fault model validates the fault
                # fields (MTBF/MTTR signs, scripted-outage shapes).
                self.fault_model()
        return self

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's default configuration (Sec. V-A2)."""
        return cls()

    @classmethod
    def small(cls) -> "ExperimentConfig":
        """A scaled-down configuration for benchmarks (minutes → seconds).

        The budget-per-slot ratio, Lyapunov parameters and workload
        intensity match the paper; only the horizon, network size and trial
        count shrink.
        """
        return cls(
            num_nodes=12,
            horizon=40,
            total_budget=1000.0,
            trials=2,
            gibbs_iterations=25,
            max_pairs=4,
            trade_off_v=2500.0,
            gamma=500.0,
        )

    @classmethod
    def tiny(cls) -> "ExperimentConfig":
        """The smallest end-to-end configuration, for unit tests."""
        return cls(
            num_nodes=8,
            horizon=10,
            total_budget=250.0,
            trials=1,
            gibbs_iterations=10,
            max_pairs=3,
            num_candidate_routes=3,
        )

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy of this configuration with selected fields replaced."""
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentConfig":
        """Rebuild a configuration from ``dataclasses.asdict`` output.

        The one loader of saved configurations (records, scenarios, result
        stores, crash bundles).  Payloads saved before the solver switches
        were removed carry them: a true switch names the path every run now
        takes and is dropped; a false one asked for a removed solver path
        and raises :class:`ConfigError`.  The removed serving layout knobs
        (:data:`REMOVED_SERVING_LAYOUT`) are dropped at any value.
        """
        fields = dict(payload)
        for name in REMOVED_SERVING_LAYOUT:
            fields.pop(name, None)
        for name, removed in _REMOVED_SOLVER_SWITCHES.items():
            if name in fields and not fields.pop(name):
                raise ConfigError(
                    f"{name}=false selects {removed}, which has been removed; "
                    f"drop the {name!r} key to run on the slot kernel"
                )
        return cls(**fields)

    def with_run_overrides(
        self, trials: Optional[int] = None, seed: Optional[int] = None
    ) -> "ExperimentConfig":
        """Apply the optional trial-count / base-seed overrides every
        experiment entry point accepts (``None`` keeps the current value)."""
        overrides: Dict[str, int] = {}
        if trials is not None:
            overrides["trials"] = int(trials)
        if seed is not None:
            overrides["base_seed"] = int(seed)
        return self.with_overrides(**overrides) if overrides else self

    # ------------------------------------------------------------------ #
    # Derived factories
    # ------------------------------------------------------------------ #
    @property
    def per_slot_budget(self) -> float:
        """``C / T``."""
        return self.total_budget / self.horizon

    def capacity_ranges(self) -> CapacityRanges:
        """The qubit/channel capacity sampling ranges."""
        return CapacityRanges(
            qubit_min=self.qubit_capacity_min,
            qubit_max=self.qubit_capacity_max,
            channel_min=self.channel_capacity_min,
            channel_max=self.channel_capacity_max,
        )

    def build_graph(
        self,
        seed: SeedLike = None,
        store: Optional[TopologyStore] = default_topology_store,
    ) -> QDNGraph:
        """Generate one topology of the configured family (Waxman by default).

        Generation is deterministic in the configuration and the integer
        seed, so identical requests are served from the process-wide
        :class:`~repro.network.store.TopologyStore` instead of re-running
        the Waxman/bisection construction — every worker of a sweep used to
        rebuild the same graph once per policy unit and study point.  Pass
        ``store=None`` (or a non-integer seed, e.g. a live generator) to
        bypass the store; stored graphs are shared and must not be mutated.
        Subclasses bypass the store automatically: the cache key covers the
        base class's topology fields, and an overridden factory could depend
        on state the key does not see.
        """
        if seed is None:
            seed = derive_seed(self.base_seed, "topology")

        def build() -> QDNGraph:
            return build_topology(
                self.topology_kind,
                num_nodes=self.num_nodes,
                target_degree=self.target_degree,
                alpha=self.waxman_alpha,
                area=self.area,
                capacities=self.capacity_ranges(),
                attempts_per_slot=self.attempts_per_slot,
                seed=seed,
            )

        if (
            store is None
            or type(self) is not ExperimentConfig
            or not isinstance(seed, int)
        ):
            return build()
        key = (
            "graph",
            self.topology_kind,
            self.num_nodes,
            self.area,
            self.waxman_alpha,
            self.target_degree,
            self.qubit_capacity_min,
            self.qubit_capacity_max,
            self.channel_capacity_min,
            self.channel_capacity_max,
            self.attempt_success,
            self.attempts_per_slot,
            int(seed),
        )
        return store.graph_for(key, build)

    def physical_model(self) -> Optional[PhysicalModel]:
        """The configured physical-layer model, or ``None`` when disabled.

        This is the single place the flat ``physical_*`` fields become the
        :class:`~repro.simulation.physical.PhysicalModel` the simulators
        consume; the slot length (``attempts_per_slot`` × attempt duration)
        comes from the link-physics section so the memory dwell matches the
        configured slot.
        """
        if not self.physical_enabled:
            return None
        return PhysicalModel(
            swap_success=self.physical_swap_success,
            link_fidelity=self.physical_link_fidelity,
            memory_time=self.physical_memory_time,
            attempts_per_slot=self.attempts_per_slot,
            dwell_fraction=self.physical_dwell_fraction,
            purify_rounds=self.physical_purify_rounds,
            cutoff_fidelity=self.physical_cutoff_fidelity,
            fidelity_target=self.physical_fidelity_target,
            engine=self.physical_engine,
        )

    def timing_model(self) -> TimingModel:
        """The classical-signaling timing model of the ``timing`` fields.

        This is the single place the flat ``backend``-adjacent fields become
        the :class:`~repro.simulation.eventsim.TimingModel` the simulators
        consume.  Always defined (the slotted backend uses only its
        ``guard_time``, for slot timestamps).
        """
        return TimingModel(
            signaling_latency_s=self.signaling_latency_s,
            edge_latency_s=dict(self.edge_latency_s) if self.edge_latency_s else None,
            guard_time=self.slot_guard_time_s,
        )

    def serving_model(self) -> Optional["ServingModel"]:
        """The configured serving-layer model, or ``None`` when disabled.

        The single place the flat ``serving_*`` fields become the
        :class:`~repro.serving.scheduler.ServingModel` the
        :class:`~repro.serving.scheduler.ServingSimulator` consumes;
        constructing it validates every serving field.
        """
        if not self.serving_enabled:
            return None
        from repro.serving.scheduler import ServingModel

        return ServingModel(
            arrival_kind=self.serving_arrival_kind,
            arrival_rate=self.serving_arrival_rate,
            arrival_trace=(
                tuple(self.serving_arrival_trace)
                if self.serving_arrival_trace is not None
                else None
            ),
            session_rate=self.serving_session_rate,
            session_lifetime=self.serving_session_lifetime,
            renew_probability=self.serving_renew_probability,
            session_budget=self.serving_session_budget,
            admission=self.serving_admission,
            admission_threshold=self.serving_admission_threshold,
            token_rate=self.serving_token_rate,
            token_burst=self.serving_token_burst,
            merge_every=self.serving_merge_every,
            min_availability=self.serving_min_availability,
        )

    def fault_model(self) -> Optional["FaultModel"]:
        """The configured fault model, or ``None`` when disabled.

        The single place the flat ``fault_*`` fields become the
        :class:`~repro.faults.FaultModel` the simulators consume;
        constructing it validates every fault field.
        """
        if not self.fault_enabled:
            return None
        from repro.faults import FaultModel

        return FaultModel(
            node_mtbf=self.fault_node_mtbf,
            edge_mtbf=self.fault_edge_mtbf,
            mttr=self.fault_mttr,
            outages=tuple(
                tuple(entry) for entry in (self.fault_outages or ())
            ),
            aware=self.fault_aware,
        )

    def telemetry_model(self) -> Optional[TelemetryModel]:
        """The configured telemetry model, or ``None`` when configured off.

        The single place the flat ``telemetry_*`` fields become the
        :class:`~repro.telemetry.TelemetryModel` the simulators consume.
        The ``REPRO_TELEMETRY`` override is deliberately *not* applied
        here — it takes effect at :meth:`repro.telemetry.Tracer.build`
        time (which also arms a ``None`` model), so scenario dictionaries
        and content-addressed store keys never depend on the variable.
        """
        if self.telemetry_level == "off":
            return None
        return TelemetryModel(
            level=self.telemetry_level,
            span_ring=int(self.telemetry_span_ring),
        )

    def build_faults(
        self, graph: QDNGraph, seed: SeedLike, horizon: Optional[int] = None
    ) -> Optional["FaultSchedule"]:
        """The precomputed fault schedule of one run (``None`` when disabled).

        ``seed`` must be the run's dedicated fault seed
        (``derive_seed(base_seed, "faults", trial)``) so schedules are
        byte-identical across serial/parallel execution and worker layouts.
        """
        model = self.fault_model()
        if model is None:
            return None
        from repro.faults import FaultSchedule

        return FaultSchedule.build(
            model, graph, seed, self.horizon if horizon is None else int(horizon)
        )

    def request_process(self) -> RequestProcess:
        """The paper's uniform EC request process."""
        return UniformRequestProcess(min_pairs=self.min_pairs, max_pairs=self.max_pairs)

    def resource_process(self) -> ResourceProcess:
        """Resource availability process (full availability by default)."""
        return StaticResources()

    def build_trace(
        self,
        graph: QDNGraph,
        seed: SeedLike = None,
        store: Optional[TopologyStore] = default_topology_store,
    ) -> WorkloadTrace:
        """Sample one frozen workload trace for ``graph``.

        Traces are frozen (immutable) realisations, deterministic in the
        workload configuration, the graph and the integer seed — so when
        ``graph`` came out of the :class:`TopologyStore` the trace (and its
        candidate-route tables, the expensive part) is memoised there too.
        Non-integer seeds, foreign graphs, subclasses (whose overridden
        request/resource processes the key cannot see) or ``store=None``
        bypass the store.
        """
        if seed is None:
            seed = derive_seed(self.base_seed, "trace")

        def build() -> WorkloadTrace:
            return generate_trace(
                graph,
                horizon=self.horizon,
                request_process=self.request_process(),
                resource_process=self.resource_process(),
                num_candidate_routes=self.num_candidate_routes,
                max_extra_hops=self.max_extra_hops,
                seed=seed,
            )

        token = store.token_for(graph) if store is not None else None
        if (
            token is None
            or type(self) is not ExperimentConfig
            or not isinstance(seed, int)
        ):
            return build()
        key = (
            "trace",
            token,
            self.horizon,
            self.min_pairs,
            self.max_pairs,
            self.num_candidate_routes,
            self.max_extra_hops,
            int(seed),
        )
        return store.trace_for(key, build)

    # ------------------------------------------------------------------ #
    # Policies
    # ------------------------------------------------------------------ #
    def make_oscar(self, **overrides) -> OscarPolicy:
        """The OSCAR policy configured per this experiment."""
        parameters = dict(
            total_budget=self.total_budget,
            horizon=self.horizon,
            trade_off_v=self.trade_off_v,
            initial_queue=self.initial_queue,
            gamma=self.gamma,
            gibbs_iterations=self.gibbs_iterations,
            exhaustive_limit=self.exhaustive_limit,
            dual_tolerance=self.dual_tolerance,
            solve_deadline=self.solve_deadline,
        )
        parameters.update(overrides)
        return OscarPolicy(**parameters)

    def make_myopic_fixed(self, **overrides) -> MyopicFixedPolicy:
        """The MF baseline configured per this experiment."""
        parameters = dict(
            total_budget=self.total_budget,
            horizon=self.horizon,
            gamma=self.gamma,
            gibbs_iterations=self.gibbs_iterations,
            exhaustive_limit=self.exhaustive_limit,
            dual_tolerance=self.dual_tolerance,
            solve_deadline=self.solve_deadline,
        )
        parameters.update(overrides)
        return MyopicFixedPolicy(**parameters)

    def make_myopic_adaptive(self, **overrides) -> MyopicAdaptivePolicy:
        """The MA baseline configured per this experiment."""
        parameters = dict(
            total_budget=self.total_budget,
            horizon=self.horizon,
            gamma=self.gamma,
            gibbs_iterations=self.gibbs_iterations,
            exhaustive_limit=self.exhaustive_limit,
            dual_tolerance=self.dual_tolerance,
            solve_deadline=self.solve_deadline,
        )
        parameters.update(overrides)
        return MyopicAdaptivePolicy(**parameters)

    def make_unconstrained(self, **overrides) -> UnconstrainedPolicy:
        """The budget-oblivious reference policy."""
        parameters = dict(
            total_budget=self.total_budget,
            horizon=self.horizon,
            gamma=self.gamma,
            gibbs_iterations=self.gibbs_iterations,
            exhaustive_limit=self.exhaustive_limit,
            dual_tolerance=self.dual_tolerance,
            solve_deadline=self.solve_deadline,
        )
        parameters.update(overrides)
        return UnconstrainedPolicy(**parameters)

    def make_shortest_uniform(self, **overrides) -> ShortestRouteUniformPolicy:
        """The naive shortest-route / uniform-spread heuristic."""
        parameters = dict(total_budget=self.total_budget, horizon=self.horizon)
        parameters.update(overrides)
        return ShortestRouteUniformPolicy(**parameters)

    def default_policies(self) -> List[RoutingPolicy]:
        """The three policies compared throughout the paper: OSCAR, MA, MF."""
        return [self.make_oscar(), self.make_myopic_adaptive(), self.make_myopic_fixed()]

    def describe(self) -> Dict[str, object]:
        """A flat description of the configuration (for reports and logs)."""
        return dataclasses.asdict(self)
