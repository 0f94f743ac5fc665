"""The paper's primary contribution: user-centric entanglement routing.

* :mod:`repro.core.problem` — the per-slot decision context and the joint
  route-selection / qubit-allocation decision.
* :mod:`repro.core.objective` — entanglement success probabilities, the
  proportional-fair utility and the drift-plus-penalty objective.
* :mod:`repro.core.virtual_queue` — the Lyapunov virtual cost-deficit queue.
* :mod:`repro.core.allocation` — Algorithm 2's outcome: the integer
  allocation of a route selection and its relaxed counterpart.
* :mod:`repro.core.route_selection` — Algorithm 3: route selection by Gibbs
  sampling, plus exhaustive search for small instances.
* :mod:`repro.core.per_slot` — the per-slot problem P2 solver combining the
  two, with graceful degradation when a slot is infeasible.
* :mod:`repro.core.policy` — the policy interface shared by OSCAR, the
  baselines, and any user-defined strategy.
* :mod:`repro.core.oscar` — Algorithm 1: the OSCAR online policy.
* :mod:`repro.core.baselines` — the paper's Myopic-Fixed and Myopic-Adaptive
  baselines plus additional reference policies.
* :mod:`repro.core.fidelity` — the fidelity-constrained extension sketched in
  Sec. III-C.
* :mod:`repro.core.offline` — the offline Lagrangian oracle (the empirical
  counterpart of Theorem 2's OPT).
* :mod:`repro.core.multiuser` — several tenants sharing one QDN, each running
  its own policy against the resources the others leave available.
"""

from repro.core.problem import SlotContext, SlotDecision
from repro.core.objective import (
    drift_plus_penalty_objective,
    pair_success_probability,
    route_success_probability,
    slot_utility,
)
from repro.core.virtual_queue import VirtualQueue
from repro.core.allocation import AllocationOutcome
from repro.core.route_selection import (
    ExhaustiveRouteSelector,
    GibbsRouteSelector,
    RouteSelectionResult,
)
from repro.core.per_slot import PerSlotSolver
from repro.core.policy import RoutingPolicy
from repro.core.oscar import OscarPolicy
from repro.core.baselines import (
    MyopicAdaptivePolicy,
    MyopicFixedPolicy,
    ShortestRouteUniformPolicy,
    UnconstrainedPolicy,
)
from repro.core.fidelity import FidelityAwarePolicy, RouteFidelityModel
from repro.core.offline import OfflineOraclePolicy, OfflinePlan, plan_offline
from repro.core.multiuser import MultiUserSimulator, MultiUserOutcome, QDNUser

__all__ = [
    "SlotContext",
    "SlotDecision",
    "drift_plus_penalty_objective",
    "pair_success_probability",
    "route_success_probability",
    "slot_utility",
    "VirtualQueue",
    "AllocationOutcome",
    "ExhaustiveRouteSelector",
    "GibbsRouteSelector",
    "RouteSelectionResult",
    "PerSlotSolver",
    "RoutingPolicy",
    "OscarPolicy",
    "MyopicFixedPolicy",
    "MyopicAdaptivePolicy",
    "ShortestRouteUniformPolicy",
    "UnconstrainedPolicy",
    "FidelityAwarePolicy",
    "RouteFidelityModel",
    "OfflineOraclePolicy",
    "OfflinePlan",
    "plan_offline",
    "MultiUserSimulator",
    "MultiUserOutcome",
    "QDNUser",
]
