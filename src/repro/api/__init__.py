"""The public facade of the reproduction.

``repro.api`` is the single front door to the system: name-based policy
construction, a fluent scenario builder covering single-user comparisons and
multi-tenant runs alike, parallel trial execution with streaming events, and
one unified result schema.

Quick tour
----------

Build policies by name (keyword-configurable, extensible via decorator)::

    from repro import api

    oscar = api.make_policy("oscar", total_budget=5000.0)
    api.available_policies()
    # ('myopic-adaptive', 'myopic-fixed', 'oscar', 'shortest-uniform', 'unconstrained')

Describe and run an experiment::

    record = (api.Scenario.small()
              .with_policies("oscar", "ma", "mf")
              .with_budget(2000.0)
              .with_trials(4)
              .run(workers=4))          # bit-identical to workers=1
    print(record.format_summary())
    record.save("comparison.json")

Watch it run::

    record = api.run_scenario(
        scenario, workers=1,
        observers=[api.ProgressObserver(), api.LiveMetricsObserver()],
    )

Sweep an axis (or several) over one parallel work queue::

    result = (api.Study("budget-sweep")
              .base(api.Scenario.small())
              .over("budget.total_budget", [600.0, 1000.0, 1600.0], label="C")
              .run(workers=8, store="results/budget-sweep"))
    print(result.format_summary())

Register your own policy::

    @api.register_policy("my-policy")
    def make_my_policy(config, **kwargs):
        return MyPolicy(total_budget=config.total_budget, **kwargs)

    api.Scenario.tiny().with_policies("oscar", "my-policy").run()
"""

from repro.api.events import (
    CallbackObserver,
    EarlyStop,
    EventLog,
    LiveMetricsObserver,
    ProgressObserver,
    RunCompleted,
    RunEvent,
    RunObserver,
    RunStarted,
    SlotCompleted,
    TrialCompleted,
    TrialStarted,
)
from repro.api.records import STATS_LAYERS, RunRecord
from repro.api.registry import (
    PolicyRegistry,
    UnknownPolicyError,
    available_policies,
    default_registry,
    make_policy,
    register_policy,
)
from repro.api.scenario import PolicySpec, Scenario, UserSpec
from repro.api.session import Session, compare, execute_trial, run_scenario
from repro.faults import (
    FaultModel,
    FaultSchedule,
    FaultState,
    FaultStats,
    InterruptGuard,
    Outage,
    PoolSupervisor,
    RunCheckpoint,
    WorkerPoolError,
    checkpoint_key,
    fault_availability,
)
from repro.api.study import (
    ResultStore,
    Study,
    StudyAxis,
    StudyPoint,
    StudyResult,
    run_study,
)
from repro.experiments.config import ConfigError
from repro.guard import (
    GUARD_LEVELS,
    DiffReport,
    FlightRecorder,
    InvariantGuard,
    InvariantViolation,
    ReplayResult,
    dump_bundle,
    load_bundle,
    replay_bundle,
)
from repro.guard import run_all as diff_all_pairs
from repro.telemetry import (
    TELEMETRY_LEVELS,
    TelemetryModel,
    Tracer,
    render_prometheus,
    spans_to_chrome_trace,
    summarize_spans,
    write_chrome_trace,
)
from repro.serving import (
    AdmissionPolicy,
    AlwaysAdmit,
    ArrivalProcess,
    AvailabilityGate,
    BacklogThreshold,
    PoissonArrivals,
    ServingModel,
    ServingSimulator,
    SessionSpec,
    TokenBucket,
    TraceArrivals,
    UnknownAdmissionPolicyError,
    available_admission_policies,
    jain_fairness,
    make_admission_policy,
    mean_sojourn_slots,
    register_admission_policy,
    serving_requests_per_second,
)

__all__ = [
    # registry
    "PolicyRegistry",
    "UnknownPolicyError",
    "available_policies",
    "default_registry",
    "make_policy",
    "register_policy",
    # scenario
    "PolicySpec",
    "Scenario",
    "UserSpec",
    # session
    "Session",
    "compare",
    "execute_trial",
    "run_scenario",
    # studies
    "ResultStore",
    "Study",
    "StudyAxis",
    "StudyPoint",
    "StudyResult",
    "run_study",
    # records
    "RunRecord",
    "STATS_LAYERS",
    # guard / replay / differential
    "ConfigError",
    "DiffReport",
    "FlightRecorder",
    "GUARD_LEVELS",
    "InvariantGuard",
    "InvariantViolation",
    "ReplayResult",
    "diff_all_pairs",
    "dump_bundle",
    "load_bundle",
    "replay_bundle",
    # telemetry / observability
    "TELEMETRY_LEVELS",
    "TelemetryModel",
    "Tracer",
    "render_prometheus",
    "spans_to_chrome_trace",
    "summarize_spans",
    "write_chrome_trace",
    # faults / resilience
    "FaultModel",
    "FaultSchedule",
    "FaultState",
    "FaultStats",
    "InterruptGuard",
    "Outage",
    "PoolSupervisor",
    "RunCheckpoint",
    "WorkerPoolError",
    "checkpoint_key",
    "fault_availability",
    # serving
    "AdmissionPolicy",
    "AlwaysAdmit",
    "ArrivalProcess",
    "AvailabilityGate",
    "BacklogThreshold",
    "PoissonArrivals",
    "ServingModel",
    "ServingSimulator",
    "SessionSpec",
    "TokenBucket",
    "TraceArrivals",
    "UnknownAdmissionPolicyError",
    "available_admission_policies",
    "jain_fairness",
    "make_admission_policy",
    "mean_sojourn_slots",
    "register_admission_policy",
    "serving_requests_per_second",
    # events / observers
    "CallbackObserver",
    "EarlyStop",
    "EventLog",
    "LiveMetricsObserver",
    "ProgressObserver",
    "RunCompleted",
    "RunEvent",
    "RunObserver",
    "RunStarted",
    "SlotCompleted",
    "TrialCompleted",
    "TrialStarted",
]
