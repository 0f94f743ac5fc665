"""Algorithm 2 — the outcome of qubit allocation for a fixed route selection.

The allocation itself runs on the compiled slot kernel
(:mod:`repro.solvers.kernel`): one variable per (request, edge-on-route),
node constraints from Eq. 4, edge constraints from Eq. 5 and optionally a
per-slot budget cap (the myopic baselines), solved by continuous relaxation
and rounded by the paper's "down-round and allocate surplus" procedure.
:class:`AllocationOutcome` carries both the integer allocation (what is
deployed) and the relaxed solution (used by the Δ-optimality diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.problem import AllocationKey
from repro.network.graph import EdgeKey
from repro.solvers.relaxed import ContinuousSolution
from repro.solvers.rounding import IntegerSolution
from repro.workload.requests import SDPair


@dataclass(frozen=True)
class AllocationOutcome:
    """Result of one allocation call.

    ``allocation`` maps (request, edge) to the deployed integer channel
    count; ``objective`` is the P2 objective value of the integer
    allocation; ``feasible`` is false when even one channel per edge does
    not fit in the slot's resources (in which case the allocation should be
    discarded and the route combination rejected).
    """

    allocation: Mapping[AllocationKey, int]
    objective: float
    feasible: bool
    cost: int
    integer_solution: Optional[IntegerSolution] = None
    relaxed_solution: Optional[ContinuousSolution] = None

    def edge_allocation(self, request: SDPair) -> Dict[EdgeKey, int]:
        """The per-edge allocation of one request."""
        return {
            key: value
            for (req, key), value in self.allocation.items()
            if req == request
        }
