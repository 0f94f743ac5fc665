"""The fluent scenario builder.

A :class:`Scenario` is a complete, declarative description of one
experiment: topology, workload trace parameters, budget, the policy line-up
(or, for multi-tenant runs, the user line-up), trial count and base seed.
Scenarios are immutable — every ``with_*`` method returns a new scenario —
so a base scenario can be forked into sweeps safely:

>>> from repro import api
>>> base = api.Scenario.small().with_policies("oscar", "ma", "mf")
>>> record = base.with_budget(2000.0).run()

A multi-tenant scenario swaps the policy line-up for users sharing the QDN:

>>> shared = (api.Scenario.tiny()
...           .with_user("lab", policy="oscar", total_budget=300.0)
...           .with_user("startup", policy="naive", min_pairs=0, max_pairs=2))

Every ``with_*`` builder sets config paths through the one setter,
:meth:`~repro.experiments.config.ExperimentConfig.with_overrides`: its
keywords are ``<group>.<keyword>`` paths (``with_faults(edge_mtbf=5)`` sets
``faults.edge_mtbf``, which turns the fault layer on), and
:meth:`Scenario.with_config` takes any path directly.

Scenarios round-trip through JSON (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`), which is also how parallel sessions ship them
to worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.registry import PolicyRegistry, default_registry
from repro.core.multiuser import QDNUser
from repro.core.policy import RoutingPolicy
from repro.experiments.config import CONFIG_PATHS, ExperimentConfig
from repro.workload.requests import (
    DiurnalRequestProcess,
    HotspotRequestProcess,
    PoissonRequestProcess,
    RequestProcess,
    UniformRequestProcess,
)

#: Named request-process kinds accepted by :meth:`Scenario.with_user`.
WORKLOAD_KINDS = {
    "uniform": UniformRequestProcess,
    "poisson": PoissonRequestProcess,
    "hotspot": HotspotRequestProcess,
    "diurnal": DiurnalRequestProcess,
}

#: Anything :meth:`Scenario.with_policies` accepts as one line-up entry.
PolicyLike = Union[str, "PolicySpec", Tuple[str, Mapping], Mapping]

def unsupported_backend_error(backend: str, feature: str, remedy: str) -> ValueError:
    """A targeted error for an unsupported ``backend × feature`` combination.

    Names the exact combination (instead of a generic failure) so the fix —
    usually dropping ``with_backend(...)`` or the conflicting feature — is
    obvious from the message alone.
    """
    return ValueError(
        f"unsupported combination: backend={backend!r} with {feature}; "
        f"{feature} runs on the slotted backend only — {remedy}"
    )


def check_driver_combination(config: ExperimentConfig, tenants: int) -> None:
    """Reject the driver combinations no simulator runs.

    The serving scheduler and a tenant line-up (``tenants`` users) are two
    different drivers, and neither runs on the event backend.  The one
    check behind :meth:`Scenario.validate` and
    :func:`repro.api.session.build_trial`.
    """
    backend = config.timing.backend
    if tenants:
        if backend != "slotted":
            raise unsupported_backend_error(
                backend,
                f"a multi-user tenant line-up ({tenants} user(s))",
                "use with_backend('slotted') or drop the tenant line-up",
            )
        if config.serving is not None:
            raise ValueError(
                "unsupported combination: the serving layer and a "
                "multi-user tenant line-up are mutually exclusive; "
                "drop with_serving() or the tenant line-up"
            )
    elif config.serving is not None and backend != "slotted":
        raise unsupported_backend_error(
            backend,
            "the serving layer (with_serving)",
            "use with_backend('slotted') or with_serving(False)",
        )


@dataclass(frozen=True)
class PolicySpec:
    """One line-up entry: a registered policy name plus keyword overrides.

    ``label`` renames the policy in results (needed when the same policy
    appears twice with different parameters, e.g. an OSCAR V-sweep).
    """

    name: str
    kwargs: Mapping[str, object] = field(default_factory=dict)
    label: Optional[str] = None

    def resolve(
        self,
        config: ExperimentConfig,
        registry: Optional[PolicyRegistry] = None,
    ) -> RoutingPolicy:
        """Build the policy against ``config`` (kwargs win over config)."""
        registry = registry if registry is not None else default_registry
        policy = registry.make(self.name, config, **dict(self.kwargs))
        if self.label:
            policy.name = self.label
        return policy

    def display_name(
        self,
        registry: Optional[PolicyRegistry] = None,
        config: Optional[ExperimentConfig] = None,
    ) -> str:
        """The name this entry will carry in results.

        ``config`` should be the configuration the policy will actually be
        built against — registry wrappers that rename the policy (the
        fidelity-constrained mode's ``+F>=…`` suffix) depend on it; without
        one a neutral tiny config probes the bare factory.
        """
        if self.label:
            return self.label
        registry = registry if registry is not None else default_registry
        probe_config = config if config is not None else ExperimentConfig.tiny()
        # Fall back to the spec name when the registry cannot resolve it yet.
        try:
            probe = registry.make(self.name, probe_config, **dict(self.kwargs))
        except Exception:
            return self.name
        return probe.name

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "kwargs": dict(self.kwargs), "label": self.label}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PolicySpec":
        return cls(
            name=str(payload["name"]),
            kwargs=dict(payload.get("kwargs", {})),
            label=payload.get("label"),
        )

    @classmethod
    def coerce(cls, entry: PolicyLike) -> "PolicySpec":
        """Accept a name, ``(name, kwargs)``, mapping or spec."""
        if isinstance(entry, PolicySpec):
            return entry
        if isinstance(entry, str):
            return cls(name=entry)
        if isinstance(entry, tuple) and len(entry) == 2:
            return cls(name=str(entry[0]), kwargs=dict(entry[1]))
        if isinstance(entry, Mapping):
            return cls.from_dict(entry)
        raise TypeError(f"cannot interpret {entry!r} as a policy spec")


@dataclass(frozen=True)
class UserSpec:
    """One tenant of a multi-user scenario.

    ``workload`` selects the request process: ``{"kind": "hotspot",
    "min_pairs": 1, ...}`` with kinds from :data:`WORKLOAD_KINDS`.  A
    ``total_budget`` of ``None`` inherits the scenario's budget.
    """

    name: str
    policy: PolicySpec
    total_budget: Optional[float] = None
    workload: Mapping[str, object] = field(default_factory=dict)

    def build_request_process(self, config: ExperimentConfig) -> RequestProcess:
        """Instantiate this user's request process."""
        options = dict(self.workload)
        kind = str(options.pop("kind", "uniform"))
        if kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {kind!r}; choose from {sorted(WORKLOAD_KINDS)}"
            )
        if kind == "uniform" and not options:
            options = {"min_pairs": config.min_pairs, "max_pairs": config.max_pairs}
        return WORKLOAD_KINDS[kind](**options)

    def build(
        self,
        config: ExperimentConfig,
        registry: Optional[PolicyRegistry] = None,
    ) -> QDNUser:
        """Build the :class:`QDNUser` (policy + workload + budget)."""
        budget = self.total_budget if self.total_budget is not None else config.total_budget
        policy = self.policy.resolve(
            config.with_overrides(total_budget=budget), registry=registry
        )
        return QDNUser(
            name=self.name,
            policy=policy,
            request_process=self.build_request_process(config),
            total_budget=budget,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "policy": self.policy.to_dict(),
            "total_budget": self.total_budget,
            "workload": dict(self.workload),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "UserSpec":
        return cls(
            name=str(payload["name"]),
            policy=PolicySpec.from_dict(payload["policy"]),
            total_budget=payload.get("total_budget"),
            workload=dict(payload.get("workload", {})),
        )


def _default_lineup() -> Tuple[PolicySpec, ...]:
    """The paper's line-up: OSCAR vs. the two myopic baselines."""
    return (
        PolicySpec("oscar"),
        PolicySpec("myopic-adaptive"),
        PolicySpec("myopic-fixed"),
    )


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment description (see module docstring).

    Every field serialises (:meth:`to_dict`); the result-store and
    checkpoint keys hash that form.  A custom policy joins the line-up by
    name: register it (:func:`~repro.api.registry.register_policy`), then
    list it in :meth:`with_policies`.  :meth:`run` returns the run's
    :class:`~repro.api.records.RunRecord`, the one result type.
    """

    name: str = "scenario"
    config: ExperimentConfig = field(default_factory=ExperimentConfig.paper)
    policies: Tuple[PolicySpec, ...] = field(default_factory=_default_lineup)
    users: Tuple[UserSpec, ...] = ()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: ExperimentConfig, name: str = "scenario") -> "Scenario":
        """Wrap an existing :class:`ExperimentConfig`."""
        return cls(name=name, config=config)

    @classmethod
    def paper(cls, name: str = "paper") -> "Scenario":
        """The paper's Section V-A configuration."""
        return cls(name=name, config=ExperimentConfig.paper())

    @classmethod
    def small(cls, name: str = "small") -> "Scenario":
        """The benchmark-scale configuration (seconds instead of minutes)."""
        return cls(name=name, config=ExperimentConfig.small())

    @classmethod
    def tiny(cls, name: str = "tiny") -> "Scenario":
        """The smallest end-to-end configuration (unit tests, smoke runs)."""
        return cls(name=name, config=ExperimentConfig.tiny())

    # ------------------------------------------------------------------ #
    # Fluent builders (each returns a new Scenario)
    # ------------------------------------------------------------------ #
    def _replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def with_name(self, name: str) -> "Scenario":
        """Rename the scenario (shows up in events and records)."""
        return self._replace(name=name)

    def with_config(self, **overrides) -> "Scenario":
        """Override config values by path (any spelling of
        :data:`~repro.experiments.config.CONFIG_PATHS`)::

            scenario.with_config(horizon=20, **{"faults.edge_mtbf": 40.0})

        Setting a field of a layer that is off turns the layer on.
        """
        return self._replace(config=self.config.with_overrides(**overrides))

    def _with_group(self, group: str, method: str, overrides: Mapping) -> "Scenario":
        """Apply every keyword ``key`` as the config path ``<group>.<key>``."""
        prefix = f"{group}."
        unknown = sorted(key for key in overrides if prefix + key not in CONFIG_PATHS)
        if unknown:
            allowed = sorted(
                name[len(prefix):] for name in CONFIG_PATHS if name.startswith(prefix)
            )
            raise TypeError(
                f"{method}() got unexpected field(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(allowed)}"
            )
        return self.with_config(**{prefix + key: value for key, value in overrides.items()})

    def with_topology(self, kind: Optional[str] = None, **overrides) -> "Scenario":
        """Configure the network (``num_nodes``, ``target_degree``, capacities, …).

        ``kind`` selects the topology family: ``"waxman"`` (the paper's
        generator, default) or one of the regular families ``"grid"``,
        ``"ring"``, ``"star"``, ``"line"``, ``"complete"`` — see
        :data:`repro.network.topology.TOPOLOGY_KINDS`.
        """
        if kind is not None:
            overrides["kind"] = str(kind).strip().lower()
        return self._with_group("topology", "with_topology", overrides)

    def with_workload(self, **overrides) -> "Scenario":
        """Configure the trace (``horizon``, ``min_pairs``/``max_pairs``, routes)."""
        return self._with_group("workload", "with_workload", overrides)

    def with_budget(self, total_budget: Optional[float] = None, **overrides) -> "Scenario":
        """Configure the budget and Lyapunov parameters (``trade_off_v``, …)."""
        if total_budget is not None:
            overrides["total_budget"] = float(total_budget)
        return self._with_group("budget", "with_budget", overrides)

    def with_solver(self, **overrides) -> "Scenario":
        """Configure the per-slot solver (the compiled slot kernel).

        ``dual_tolerance`` tunes the kernel's duality-gap early stop; ``0``
        selects replay mode (the fixed iteration schedule from zero
        multipliers, no warm start).  ``solve_deadline`` caps the per-slot
        solve at a deterministic number of combination evaluations: slots
        over budget degrade exhaustive → Gibbs → greedy (see
        :class:`~repro.core.per_slot.PerSlotSolver`); ``0`` (default) keeps
        the solve unlimited.
        """
        return self._with_group("solver", "with_solver", overrides)

    def with_physical(self, enabled: bool = True, **overrides) -> "Scenario":
        """Configure the physical delivery co-simulation layer (``config.physical``).

        ``with_physical()`` switches it on with the defaults; keyword
        arguments are fields of
        :class:`~repro.simulation.physical.PhysicalModel`::

            scenario.with_physical(
                swap_success=0.98, purify_rounds=2,
                fidelity_target=0.6, fidelity_constrained=True,
            )

        ``swap_success`` is the Bell-state-measurement success probability,
        ``memory_time`` the decoherence T2 in seconds, ``purify_rounds`` the
        requested BBPSSW recurrence rounds per link (clipped per edge by its
        channel allocation), ``cutoff_fidelity`` the memory cutoff policy,
        ``fidelity_target`` the delivered-fidelity target and
        ``fidelity_constrained`` whether registry-built policies are wrapped
        so only target-capable routes are eligible.
        ``with_physical(False)`` switches the layer back off.
        """
        return self._with_group("physical", "with_physical", {**overrides, "enabled": enabled})

    def with_backend(self, backend: str = "event", **overrides) -> "Scenario":
        """Select the simulation backend and its timing (``config.timing``).

        ``with_backend()`` switches to the event-driven co-simulation
        backend (:mod:`repro.simulation.eventsim`); ``with_backend("slotted")``
        returns to the paper's slotted abstraction.  Keyword arguments are
        fields of :class:`~repro.simulation.eventsim.TimingModel` or their
        aliases::

            scenario.with_backend(latency=0.05)                 # 50 ms one-way
            scenario.with_backend(edge_latencies={"0|3": 0.2})  # per-edge map
            scenario.with_backend(guard_time=0.1)               # deadline slack

        ``latency`` is ``signaling_latency_s`` (the default one-way
        classical latency of every edge), ``edge_latencies`` is
        ``edge_latency_s`` (per-edge overrides keyed by
        :func:`repro.simulation.eventsim.edge_latency_key` strings) and
        ``guard_time`` is extra slot time beyond the attempt window,
        available for classical message round-trips.  With zero latency the
        event backend reproduces the slotted backend's realised outcomes
        exactly.
        """
        return self._with_group("timing", "with_backend", {**overrides, "backend": backend})

    def with_serving(self, enabled: bool = True, **overrides) -> "Scenario":
        """Configure the open-system serving layer (``config.serving``).

        ``with_serving()`` switches it on with the defaults; keyword
        arguments are fields of :class:`~repro.serving.scheduler.ServingModel`::

            scenario.with_serving(
                arrival_rate=2.0, session_lifetime=40,
                admission="token-bucket", merge_every=5,
            )

        ``arrival_kind`` selects ``"poisson"`` joins at ``arrival_rate``
        sessions/slot or ``"trace"`` replaying the ``arrival_trace`` per-slot
        join counts; each session issues ``session_rate`` requests/slot over
        a geometric lifetime of mean ``session_lifetime`` slots and renews
        with ``renew_probability``.  ``admission`` names the gate policy
        (``always``, ``backlog-threshold`` with ``admission_threshold``,
        ``token-bucket`` with ``token_rate``/``token_burst``).  Admission
        runs once per window of ``merge_every`` slots against the state at
        the window start.  The layout keywords of earlier releases
        (``shards``, ``shard_workers``, ``shard_timeout_s``) are accepted and
        ignored, as in saved configurations.  ``with_serving(False)``
        switches the layer back off.
        """
        return self._with_group("serving", "with_serving", {**overrides, "enabled": enabled})

    def with_faults(self, enabled: bool = True, **overrides) -> "Scenario":
        """Configure the deterministic fault-injection layer (``config.faults``).

        ``with_faults()`` switches it on with the defaults (no transient
        outages until an MTBF is set); keyword arguments are fields of
        :class:`~repro.faults.model.FaultModel`::

            scenario.with_faults(
                node_mtbf=100.0, edge_mtbf=50.0, mttr=5.0,
                outages=[["node", "3", 20, 10]],
            )

        ``node_mtbf``/``edge_mtbf`` are mean up-times in slots of the
        seeded transient outage processes (``0`` disables that element
        class), ``mttr`` the mean down-time, ``outages`` scripted one-shot
        failures as ``[kind, element, start, duration]`` entries.
        ``aware`` (default ``True``) lets policies see the degraded
        topology — routes over failed elements leave the candidate sets;
        ``aware=False`` keeps the full sets and the affected requests are
        lost at realization time.  The fault schedule is derived from its
        own spawned seed stream, so enabling it never perturbs topology,
        trace or realization draws — and fault-free runs stay
        byte-identical.  ``with_faults(False)`` switches the layer off.
        """
        return self._with_group("faults", "with_faults", {**overrides, "enabled": enabled})

    def with_guard(self, level: str = "cheap") -> "Scenario":
        """Arm the runtime invariant guard (:mod:`repro.guard`).

        ``level`` is one of ``"off"``/``"cheap"``/``"strict"``: ``cheap``
        runs O(1) per-slot accounting checks, ``strict`` additionally
        recomputes constraint rows, the virtual-queue recursion, kernel
        dual bounds and fault-schedule accounting.  The guard is purely
        observational — results are byte-identical at every level; a breach
        raises :class:`~repro.guard.InvariantViolation` and drops a
        content-addressed repro bundle (see ``repro replay``).  The
        ``REPRO_GUARD`` environment variable overrides the level at run
        time without changing the scenario's identity.
        """
        return self.with_config(guard_level=str(level))

    def with_telemetry(self, level: str = "light", **overrides) -> "Scenario":
        """Arm the observability layer (``config.telemetry``).

        ``level`` is one of ``"off"``/``"light"``/``"full"``: ``light``
        aggregates per-span wall/CPU profiles and the metrics registry
        (constant memory, the always-on default), ``full`` additionally
        keeps a bounded ring of span events for Chrome-trace/Perfetto
        export and crash-bundle attachment.  Keyword arguments are fields
        of :class:`~repro.telemetry.tracer.TelemetryModel`, e.g.
        ``with_telemetry("full", span_ring=4096)``.  Telemetry is purely
        observational and draws no randomness — results are byte-identical
        at every level; the ``REPRO_TELEMETRY`` environment variable
        overrides the level at run time without changing the scenario's
        identity.
        """
        return self._with_group("telemetry", "with_telemetry", {**overrides, "level": str(level)})

    def with_trials(self, trials: int) -> "Scenario":
        """Number of independent trials (fresh topology + trace each)."""
        return self.with_config(trials=int(trials))

    def with_seed(self, seed: int) -> "Scenario":
        """The base seed every per-trial stream is derived from."""
        return self.with_config(base_seed=int(seed))

    def with_realize(self, realize: bool) -> "Scenario":
        """Enable/disable Monte-Carlo realisation of every EC."""
        return self.with_config(realize=bool(realize))

    def with_policies(self, *entries: PolicyLike) -> "Scenario":
        """Replace the policy line-up (names, ``(name, kwargs)`` or specs)."""
        if not entries:
            raise ValueError("at least one policy is required")
        return self._replace(policies=tuple(PolicySpec.coerce(entry) for entry in entries))

    def with_policy(self, name: str, label: Optional[str] = None, **kwargs) -> "Scenario":
        """Append one policy to the line-up."""
        spec = PolicySpec(name=name, kwargs=kwargs, label=label)
        return self._replace(policies=self.policies + (spec,))

    def with_users(self, *users: UserSpec) -> "Scenario":
        """Replace the tenant line-up (switches to multi-user mode)."""
        return self._replace(users=tuple(users))

    def with_user(
        self,
        name: str,
        policy: PolicyLike = "oscar",
        total_budget: Optional[float] = None,
        label: Optional[str] = None,
        workload_kind: str = "uniform",
        **workload_options,
    ) -> "Scenario":
        """Append one tenant (switches to multi-user mode).

        ``workload_kind`` and the remaining keyword arguments configure the
        tenant's request process, e.g. ``workload_kind="hotspot",
        hotspot_probability=0.8`` (see :data:`WORKLOAD_KINDS`).
        """
        spec = PolicySpec.coerce(policy)
        if label:
            spec = dataclasses.replace(spec, label=label)
        workload: Dict[str, object] = {"kind": workload_kind, **workload_options}
        user = UserSpec(
            name=name, policy=spec, total_budget=total_budget, workload=workload
        )
        return self._replace(users=self.users + (user,))

    # ------------------------------------------------------------------ #
    # Introspection / resolution
    # ------------------------------------------------------------------ #
    @property
    def is_multiuser(self) -> bool:
        """Whether this scenario simulates tenants sharing the QDN."""
        return bool(self.users)

    @property
    def is_serving(self) -> bool:
        """Whether this scenario runs the open-system serving layer."""
        return self.config.serving is not None

    @property
    def kind(self) -> str:
        """``"multiuser"``, ``"serving"`` or ``"comparison"``."""
        if self.is_multiuser:
            return "multiuser"
        if self.is_serving:
            return "serving"
        return "comparison"

    def lineup_names(self, registry: Optional[PolicyRegistry] = None) -> Tuple[str, ...]:
        """The names results will be keyed by (policies, users or "serving")."""
        if self.is_multiuser:
            return tuple(user.name for user in self.users)
        if self.is_serving:
            from repro.serving.scheduler import SERVING_LINEUP_NAME

            return (SERVING_LINEUP_NAME,)
        # Probe against this scenario's config so config-dependent renames
        # (the fidelity-constrained wrapper's suffix) match the result keys.
        return tuple(
            spec.display_name(registry, config=self.config) for spec in self.policies
        )

    def build_policies(
        self, registry: Optional[PolicyRegistry] = None
    ) -> List[RoutingPolicy]:
        """Fresh policy instances for one trial (single-user mode)."""
        if self.is_multiuser:
            raise ValueError("a multi-user scenario builds users, not a policy line-up")
        return [spec.resolve(self.config, registry=registry) for spec in self.policies]

    def build_users(self, registry: Optional[PolicyRegistry] = None) -> List[QDNUser]:
        """Fresh tenant instances for one trial (multi-user mode)."""
        if not self.is_multiuser:
            raise ValueError("a single-user scenario has no tenants")
        return [user.build(self.config, registry=registry) for user in self.users]

    def validate(self) -> "Scenario":
        """Fail fast on inconsistent scenarios; returns self for chaining."""
        # Field-level validation first (raises ConfigError): a scenario
        # rebuilt from a dictionary or mutated via dataclasses.replace gets
        # the same checks as a freshly constructed config.
        self.config.validate()
        check_driver_combination(self.config, len(self.users))
        if self.is_multiuser:
            names = [user.name for user in self.users]
            if len(set(names)) != len(names):
                raise ValueError("user names must be unique")
        elif not self.is_serving:
            if not self.policies:
                raise ValueError("the policy line-up is empty")
            names = list(self.lineup_names())
            duplicates = sorted({n for n in names if names.count(n) > 1})
            if duplicates:
                raise ValueError(
                    "duplicate line-up name(s) "
                    f"{', '.join(duplicates)} would overwrite each other's "
                    "results; give repeated policies distinct labels"
                )
        return self

    def describe(self) -> Dict[str, object]:
        """A flat, human-readable description (for reports and logs)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "lineup": list(self.lineup_names()),
            **{f"config.{k}": v for k, v in self.config.describe().items()},
        }

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable description of every field."""
        return {
            "name": self.name,
            "config": dataclasses.asdict(self.config),
            "policies": [spec.to_dict() for spec in self.policies],
            "users": [user.to_dict() for user in self.users],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        return cls(
            name=str(payload.get("name", "scenario")),
            config=ExperimentConfig.from_dict(payload["config"]),
            policies=tuple(
                PolicySpec.from_dict(entry) for entry in payload.get("policies", [])
            ),
            users=tuple(UserSpec.from_dict(entry) for entry in payload.get("users", [])),
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, workers: int = 1, observers: Sequence = (), **session_options):
        """Execute this scenario and return a :class:`~repro.api.records.RunRecord`.

        Convenience wrapper over :class:`repro.api.session.Session`.
        """
        from repro.api.session import Session

        return Session(workers=workers, observers=tuple(observers), **session_options).run(self)
