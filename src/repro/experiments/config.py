"""Experiment configuration.

:class:`ExperimentConfig` holds the paper's simulation setup (Sec. V-A) —
network, workload, budget and Lyapunov parameters — as plain fields, and
each layer built on top of it as one model field:

* ``physical`` — :class:`~repro.simulation.physical.PhysicalModel`, the
  swap/purify/decohere delivery chain;
* ``timing`` — :class:`~repro.simulation.eventsim.TimingModel`, the
  simulation backend and its classical-signaling latencies;
* ``serving`` — :class:`~repro.serving.scheduler.ServingModel`, the
  open-system session scheduler;
* ``faults`` — :class:`~repro.faults.model.FaultModel`, seeded node and
  edge outages;
* ``telemetry`` — :class:`~repro.telemetry.tracer.TelemetryModel`, spans
  and profiles.

``None`` means the layer is off; ``timing`` is always present.  Each model
validates itself when it is built.

Every value has one dotted path: ``"horizon"``, ``"physical.swap_success"``,
``"timing.backend"``.  :data:`CONFIG_PATHS` maps each spelling the library
accepts to its path — the builder groups (``"topology.num_nodes"``), the
flat names of earlier releases (``"physical_swap_success"``,
``"fault_edge_mtbf"``, ``"slot_guard_time_s"``), the prefixed forms
(``"faults.fault_node_mtbf"``) and the aliases (``"timing.latency"``,
``"topology.kind"``).  :meth:`ExperimentConfig.with_overrides` is the one
setter behind ``Scenario.with_*``, ``Study.over`` and the CLI flags:
setting a field of a layer that is off turns the layer on with its
defaults, and ``<layer>.enabled = False`` (for telemetry, ``level =
"off"``) turns it off.  :meth:`ExperimentConfig.from_dict` loads the nested
dictionaries ``dataclasses.asdict`` writes as well as the flat ones of
earlier releases.

Presets: :meth:`ExperimentConfig.paper` reproduces the published setting
(20 nodes, T=200, C=5000, 5 trials) while :meth:`ExperimentConfig.small`
and :meth:`ExperimentConfig.tiny` shrink the horizon and network so the
full pipeline can run inside unit tests and CI benchmarks.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.faults.model import FaultModel, FaultSchedule
from repro.guard.invariants import GUARD_LEVELS
from repro.network.graph import QDNGraph
from repro.network.resources import ResourceProcess, StaticResources
from repro.network.store import TopologyStore, default_topology_store
from repro.network.topology import TOPOLOGY_KINDS, CapacityRanges, build_topology
from repro.serving.scheduler import ServingModel
from repro.simulation.eventsim import TimingModel
from repro.simulation.physical import PhysicalModel
from repro.telemetry.tracer import TelemetryModel
from repro.utils.rng import SeedLike, derive_seed
from repro.utils.validation import (
    check_choice,
    check_non_negative,
    check_positive,
    did_you_mean,
)
from repro.workload.requests import RequestProcess, UniformRequestProcess
from repro.workload.traces import WorkloadTrace, generate_trace


class ConfigError(ValueError):
    """One invalid :class:`ExperimentConfig` field.

    Subclasses :class:`ValueError` so historical ``except ValueError``
    call sites (and tests) keep working, and keeps its message as the sole
    constructor argument so it pickles across worker-pool boundaries.
    """


#: Solver switches of earlier releases → the solver path their ``false``
#: value selected.  Both paths are gone; see :meth:`ExperimentConfig.from_dict`.
_REMOVED_SOLVER_SWITCHES = {
    "use_kernel": "the legacy per-combination solver",
    "kernel_cache": "the recompile-per-slot kernel",
}


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
    # ``attempts_per_slot`` is the one setting of the slot's length; the
    # physical layer's memory dwell and every slot clock derive from it.
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

    # --- layers (see the module docstring; ``None`` = off) ----------------- #
    # Off layers draw nothing, so runs without them consume exactly the
    # historical random streams.
    physical: Optional[PhysicalModel] = None
    timing: TimingModel = field(default_factory=TimingModel)
    serving: Optional[ServingModel] = None
    faults: Optional[FaultModel] = None

    # --- runtime invariant guard (repro.guard) ----------------------------- #
    # "off" (the default) builds no guard; "cheap" runs O(1) per-slot
    # accounting checks; "strict" also recomputes constraint rows, the
    # virtual-queue recursion, kernel dual bounds and fault accounting.  Any
    # level produces identical results or raises.  ``REPRO_GUARD``
    # overrides the level at run time.
    guard_level: str = "off"

    # --- telemetry (repro.telemetry; ``None`` = off) ------------------------ #
    # Observational and draws no randomness.  ``REPRO_TELEMETRY`` overrides
    # the level at run time, like ``REPRO_GUARD``.
    telemetry: Optional[TelemetryModel] = None

    # --- experiment bookkeeping ------------------------------------------- #
    trials: int = 5
    base_seed: int = 2024
    realize: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Check every plain field and the type of every layer field.

        Raises :class:`ConfigError` on the first problem.  Also invoked by
        ``__post_init__``, so an ``ExperimentConfig`` can never exist in an
        invalid state, and re-invoked (idempotent, cheap) by the
        Scenario/Study/CLI entry points so configurations mutated by hand
        fail early with one exception type.  The layer models validated
        their own fields when they were built.
        """
        with _config_errors():
            check_choice(self.topology_kind, TOPOLOGY_KINDS, "topology kind")
            check_positive(self.num_nodes, "num_nodes")
            check_positive(self.horizon, "horizon")
            check_positive(self.trials, "trials")
            check_positive(self.total_budget, "total_budget")
            check_positive(self.attempts_per_slot, "attempts_per_slot")
            check_positive(self.attempt_success, "attempt_success")
            check_positive(self.num_candidate_routes, "num_candidate_routes")
            check_non_negative(self.max_extra_hops, "max_extra_hops")
            check_non_negative(self.solve_deadline, "solve_deadline")
            check_choice(self.guard_level, GUARD_LEVELS, "guard level")
        if self.min_pairs < 1 or self.max_pairs < self.min_pairs:
            raise ConfigError(
                f"request-pair range [{self.min_pairs}, {self.max_pairs}] is "
                "empty; need 1 <= min_pairs <= max_pairs"
            )
        for name, (model, _) in LAYERS.items():
            value = getattr(self, name)
            if not isinstance(value, model) and (value is not None or name == "timing"):
                optional = "" if name == "timing" else " or None"
                raise ConfigError(
                    f"{name} must be a {model.__name__}{optional}, got {value!r}"
                )
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

    # ------------------------------------------------------------------ #
    # Paths: the one setter and the one loader
    # ------------------------------------------------------------------ #
    def with_overrides(self, **overrides: object) -> "ExperimentConfig":
        """A copy with each override applied through its config path.

        Keys are any spelling of :data:`CONFIG_PATHS` — pass dotted paths
        as ``**{"physical.swap_success": 0.9}`` — or a layer field with a
        whole model (or ``None``).  Setting a field of a layer that is off
        turns the layer on with its defaults.  The switches
        (``<layer>.enabled``, ``telemetry.level``) apply after the fields,
        so ``physical_enabled=False`` turns the layer off whatever else the
        call sets.  Spellings of removed knobs are accepted and ignored.
        """
        paths: Dict[str, object] = {}
        for spelling, value in overrides.items():
            path = resolve_path(spelling)
            if path is not None:
                paths[path] = value
        changes: Dict[str, object] = {}
        with _config_errors():
            for path in sorted(paths, key=_SWITCHES.__contains__):
                name, _, key = path.partition(".")
                value = paths[path]
                if key:
                    model = changes.get(name, getattr(self, name))
                    value = _set_layer_field(name, model, key, value)
                changes[name] = value
            return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentConfig":
        """Rebuild a configuration from ``dataclasses.asdict`` output.

        The one loader of saved configurations (records, scenarios, result
        stores, checkpoints, crash bundles).  Nested layer dictionaries
        rebuild their models, without the removed knobs they may hold.
        Flat keys of earlier releases go through
        :data:`CONFIG_PATHS`; a flat layer whose switch was off
        (``physical_enabled: false``, ``telemetry_level: "off"``) loads as
        ``None`` whatever its other keys hold, because that is what ran.
        Payloads saved before the solver switches were removed carry them:
        a true switch names the path every run now takes and is dropped; a
        false one asked for a removed solver path and raises
        :class:`ConfigError`.
        """
        with _config_errors():
            direct: Dict[str, object] = {}
            flat: Dict[str, object] = {}
            for key, value in payload.items():
                if key in _REMOVED_SOLVER_SWITCHES:
                    if not value:
                        raise ConfigError(
                            f"{key}=false selects {_REMOVED_SOLVER_SWITCHES[key]}, which has "
                            f"been removed; drop the {key!r} key to run on the slot kernel"
                        )
                elif key in LAYERS:
                    if isinstance(value, Mapping):
                        removed = _REMOVED_KNOBS.get(key, ())
                        fields = {k: v for k, v in value.items() if k not in removed}
                        value = LAYERS[key][0](**fields)
                    direct[key] = value
                elif key in _PLAIN_NAMES:
                    direct[key] = value
                else:
                    path = resolve_path(key)
                    if path is not None:
                        flat[path] = value
            off = {layer for layer in _SWITCHED if not flat.get(f"{layer}.enabled", False)}
            if flat.get("telemetry.level", "off") == "off":
                off.add("telemetry")
            kept = {path: v for path, v in flat.items() if path.partition(".")[0] not in off}
            return cls(**direct).with_overrides(**kept)

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

    def build_faults(
        self, graph: QDNGraph, seed: SeedLike, horizon: Optional[int] = None
    ) -> Optional[FaultSchedule]:
        """The precomputed fault schedule of one run (``None`` when disabled).

        ``seed`` must be the run's dedicated fault seed
        (``derive_seed(base_seed, "faults", trial)``) so schedules are
        byte-identical across serial/parallel execution and worker layouts.
        """
        if self.faults is None:
            return None
        return FaultSchedule.build(
            self.faults, graph, seed, self.horizon if horizon is None else int(horizon)
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

    def describe(self) -> Dict[str, object]:
        """Every value by its dotted path, for reports and logs (an off
        layer reads ``None``)."""
        out: Dict[str, object] = {}
        for item in dataclasses.fields(self):
            value = getattr(self, item.name)
            if item.name in LAYERS and value is not None:
                for key, entry in dataclasses.asdict(value).items():
                    out[f"{item.name}.{key}"] = entry
            else:
                out[item.name] = value
        return out


# --------------------------------------------------------------------------- #
# The name table
# --------------------------------------------------------------------------- #
#: The layer models: config field → (model class, prefix of the flat field
#: names of earlier releases; ``None`` where those names are irregular).
LAYERS: Dict[str, Tuple[type, Optional[str]]] = {
    "physical": (PhysicalModel, "physical_"),
    "timing": (TimingModel, None),
    "serving": (ServingModel, "serving_"),
    "faults": (FaultModel, "fault_"),
    "telemetry": (TelemetryModel, "telemetry_"),
}

#: The layers switched by an ``enabled`` path (telemetry switches by level).
_SWITCHED = ("physical", "serving", "faults")

#: The paths that switch a layer on or off; the setter applies them last.
_SWITCHES = frozenset({f"{layer}.enabled" for layer in _SWITCHED} | {"telemetry.level"})

_PLAIN_NAMES = frozenset(
    item.name for item in dataclasses.fields(ExperimentConfig) if item.name not in LAYERS
)

#: The builder groups of the plain fields: ``<group>.<field>`` spells
#: ``<field>`` (``Scenario.with_topology(num_nodes=…)``, the study axis
#: ``"topology.num_nodes"``).
_GROUPS = {
    "topology": (
        "topology_kind", "num_nodes", "area", "waxman_alpha", "target_degree",
        "qubit_capacity_min", "qubit_capacity_max",
        "channel_capacity_min", "channel_capacity_max",
        "attempt_success", "attempts_per_slot",
    ),
    "workload": ("horizon", "min_pairs", "max_pairs", "num_candidate_routes", "max_extra_hops"),
    "budget": ("total_budget", "trade_off_v", "initial_queue", "gamma"),
    "solver": ("dual_tolerance", "solve_deadline"),
    "guard": ("guard_level",),
}

#: Spellings outside the ``<group>.<field>`` / ``<prefix><field>`` pattern.
_IRREGULAR = {
    "topology.kind": "topology_kind",
    "backend": "timing.backend",
    "signaling_latency_s": "timing.signaling_latency_s",
    "edge_latency_s": "timing.edge_latency_s",
    "slot_guard_time_s": "timing.guard_time",
    "timing.slot_guard_time_s": "timing.guard_time",
    "timing.latency": "timing.signaling_latency_s",
    "timing.edge_latencies": "timing.edge_latency_s",
}

#: Layer knobs of earlier releases that chose only an implementation: the
#: serving scheduler's execution layout (shards and shard worker processes)
#: and the physical engine (batched or per-pair draws, bit-identical).  No
#: result ever depended on them, so every spelling is accepted and ignored,
#: also inside a saved layer mapping.
_REMOVED_KNOBS = {
    "serving": ("shards", "shard_workers", "shard_timeout_s"),
    "physical": ("engine",),
}


def _config_paths() -> Dict[str, Optional[str]]:
    table: Dict[str, Optional[str]] = {name: name for name in _PLAIN_NAMES | set(LAYERS)}
    for group, names in _GROUPS.items():
        table.update({f"{group}.{name}": name for name in names})
    for layer, (model, prefix) in LAYERS.items():
        names = [item.name for item in dataclasses.fields(model)]
        if layer in _SWITCHED:
            names.append("enabled")
        for name in names:
            path = f"{layer}.{name}"
            table[path] = path
            if prefix is not None:
                table[prefix + name] = table[f"{layer}.{prefix}{name}"] = path
    for layer, names in _REMOVED_KNOBS.items():
        prefix = LAYERS[layer][1]
        for name in names:
            for spelling in (f"{layer}.{name}", prefix + name, f"{layer}.{prefix}{name}"):
                table[spelling] = None
    table.update(_IRREGULAR)
    return table


#: Every accepted spelling → its dotted config path (``None``: a removed
#: knob, accepted and ignored).  A ``config.`` prefix is also accepted.
CONFIG_PATHS: Dict[str, Optional[str]] = _config_paths()


def resolve_path(spelling: str) -> Optional[str]:
    """The config path ``spelling`` names (``None`` for a removed knob).

    Raises :class:`ConfigError`, with the closest spelling, for an
    unknown one.
    """
    name = str(spelling)
    if name.startswith("config."):
        name = name[len("config."):]
    try:
        return CONFIG_PATHS[name]
    except KeyError:
        raise ConfigError(
            f"unknown config path {spelling!r}{did_you_mean(name, CONFIG_PATHS)}"
        ) from None


def with_physical_defaults(
    config: ExperimentConfig,
    defaults: Mapping[str, object],
    explicit: Optional[Iterable[str]] = None,
) -> ExperimentConfig:
    """``config`` with a figure's layer ``defaults`` (by config path) switched on.

    Without ``explicit`` (the library path), a layer that is on is taken
    exactly as configured — turning it on is the caller's statement of
    intent — and one that is off gets its ``defaults``.  ``explicit`` is
    the CLI path: the config paths (any spelling) the user pinned with
    flags keep their values, even one equal to a default (``--swap-p
    1.0``), while every other default still applies, so a bare
    ``--physical`` keeps the settings a figure is defined by.  The result
    has every layer ``defaults`` names on, so a second call without
    ``explicit`` is a no-op.
    """
    pinned = {resolve_path(name) for name in explicit or ()}
    overrides: Dict[str, object] = {}
    for path, value in defaults.items():
        layer = path.partition(".")[0]
        overrides[f"{layer}.enabled"] = True
        if path not in pinned and (explicit is not None or getattr(config, layer) is None):
            overrides[path] = value
    return config.with_overrides(**overrides)


def _set_layer_field(layer: str, model: Optional[object], key: str, value: object):
    """Layer ``layer``'s model (``None``: off) with field ``key`` set to ``value``."""
    if key == "enabled" and not value or (layer, key, value) == ("telemetry", "level", "off"):
        return None
    if model is None:
        model = LAYERS[layer][0]()
    return model if key == "enabled" else dataclasses.replace(model, **{key: value})
