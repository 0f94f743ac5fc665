"""Optimisation machinery used by the per-slot entanglement-routing problem.

* :mod:`repro.solvers.kernel` — the compiled slot kernel: incremental
  evaluation of route combinations over precompiled flat arrays with
  warm-started dual solves (every per-slot solve runs on it).
* :mod:`repro.solvers.relaxed` — the closed-form best response and the
  coordinate polish of the continuous relaxation.
* :mod:`repro.solvers.rounding` — the paper's "down-round and allocate
  surplus" procedure (Algorithm 2, step 4).
* :mod:`repro.solvers.oracle` — the exact integer optimum of a route
  combination and of a slot, the reference the kernel is measured by.
* :mod:`repro.solvers.gibbs` — a generic Gibbs sampler over finite product
  decision spaces (used by route selection, Algorithm 3).
"""

from repro.solvers.relaxed import ContinuousSolution
from repro.solvers.rounding import IntegerSolution
from repro.solvers.gibbs import GibbsSampler, GibbsResult
from repro.solvers.kernel import (
    DEFAULT_DUAL_TOLERANCE,
    KernelCache,
    SlotKernel,
)
from repro.solvers.oracle import combination_optimum, slot_optimum

__all__ = [
    "ContinuousSolution",
    "IntegerSolution",
    "GibbsSampler",
    "GibbsResult",
    "DEFAULT_DUAL_TOLERANCE",
    "KernelCache",
    "SlotKernel",
    "combination_optimum",
    "slot_optimum",
]
