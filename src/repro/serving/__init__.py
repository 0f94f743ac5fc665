"""The open-system serving layer: streaming arrivals, admission, a session table.

Batch runs solve a fixed request set over a fixed horizon; this package
turns the same simulators into a long-lived service.  Three pieces:

* :mod:`repro.serving.arrivals` — streaming session sources (Poisson and
  trace-driven) with per-user lifecycles (join, renew, depart mid-run) and
  seed-derived per-session RNG streams.
* :mod:`repro.serving.admission` — pluggable admission policies gating
  joins on the Lyapunov virtual-queue backlog (always-admit,
  backlog-threshold, token-bucket, availability-gate), registered by name.
* :mod:`repro.serving.scheduler` — the session scheduler: every active
  session is a row of a columnar session table advanced one slot at a time,
  with admission run once per merge window; each session keeps its own
  random stream.

Enable it on any scenario with ``Scenario.with_serving(...)`` or run
``python -m repro serve``.
"""

from repro.serving.admission import (
    AdmissionPolicy,
    AdmissionState,
    AlwaysAdmit,
    AvailabilityGate,
    BacklogThreshold,
    TokenBucket,
    UnknownAdmissionPolicyError,
    available_admission_policies,
    make_admission_policy,
    register_admission_policy,
)
from repro.serving.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    PoissonArrivals,
    SessionSpec,
    TraceArrivals,
    build_arrivals,
)
from repro.serving.scheduler import (
    SERVING_LINEUP_NAME,
    ServingModel,
    ServingSimulator,
    jain_fairness,
    mean_sojourn_slots,
    serving_requests_per_second,
)

__all__ = [
    "ARRIVAL_KINDS",
    "SERVING_LINEUP_NAME",
    "AdmissionPolicy",
    "AdmissionState",
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
    "build_arrivals",
    "jain_fairness",
    "make_admission_policy",
    "mean_sojourn_slots",
    "register_admission_policy",
    "serving_requests_per_second",
]
