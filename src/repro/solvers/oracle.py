"""The exact integer optimum of P2, the reference the slot kernel is measured by.

For a fixed route combination P2 is a separable integer program:

    maximise  Σ_i [V·log(1 − (1 − p_i)^{n_i}) − q·n_i]
    s.t.      Σ_{i in row r} n_i <= C_r   for every active node, edge (and budget) row,
              n_i ∈ {1, 2, …}.

Each term is concave in integer ``n_i``: the gain of the ``k``-th extra
channel, ``g_ik = V·[log P_i(k+1) − log P_i(k)] − q``, falls with ``k``.
Writing ``n_i = 1 + Σ_k z_ik`` over binary unit increments ``z_ik`` makes the
objective linear, and because the gains fall, an optimal choice always takes
a variable's increments in order.  The mixed-integer linear program over the
increments (solved by :func:`scipy.optimize.milp` with a zero optimality gap)
therefore returns the exact integer optimum.  Increments whose gain is not
positive never help, so they are left out.

The rows, probabilities and capacities come from the kernel's own compiled
combination (:meth:`~repro.solvers.kernel.SlotKernel.rows_for`), so there is
one problem builder.  scipy is imported inside :func:`combination_optimum`
only: the run path never loads it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.network.channels import log_multi_channel_success
from repro.solvers.rounding import IntegerSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solvers.kernel import SlotKernel


def _increment_gains(p: float, limit: int, V: float, q: float) -> list:
    """The positive gains of up to ``limit`` extra channels, in order."""
    gains = []
    for k in range(1, limit + 1):
        gain = V * (
            log_multi_channel_success(p, k + 1.0) - log_multi_channel_success(p, float(k))
        ) - q
        if not gain > 0.0:
            break
        gains.append(gain)
    return gains


def combination_optimum(
    kernel: "SlotKernel", assignment: Sequence[int]
) -> IntegerSolution:
    """The exact integer optimum of P2 for one route combination.

    Values follow the kernel's variable order (request by request, edge by
    edge), and the objective is summed exactly as the kernel sums it.  When
    one channel per edge does not fit the combination is infeasible and the
    objective is ``-inf``.
    """
    combo, capacities = kernel.rows_for(tuple(assignment))
    if combo is None:
        return IntegerSolution(values=(), objective=0.0, feasible=True)
    V, q = kernel.utility_weight, kernel.cost_weight
    # Integer allocations fit a row exactly when they fit its integer part.
    capacities = np.floor(capacities + 1e-9)
    slack = capacities - combo.lower_loads
    values = np.ones(combo.n)
    if np.any(slack < 0.0):
        return IntegerSolution(
            values=tuple(int(v) for v in values), objective=-math.inf, feasible=False
        )
    limits = combo.upper_bounds(capacities) - 1.0
    columns = [
        (i, gain)
        for i in range(combo.n)
        for gain in _increment_gains(float(combo.p[i]), int(limits[i]), V, q)
    ]
    if columns:
        from scipy.optimize import Bounds, LinearConstraint, milp

        owners = np.asarray([i for i, _ in columns])
        result = milp(
            c=-np.asarray([gain for _, gain in columns]),
            integrality=np.ones(len(columns)),
            bounds=Bounds(0.0, 1.0),
            constraints=LinearConstraint(combo.membership[:, owners], ub=slack),
            options={"mip_rel_gap": 0.0},
        )
        if not result.success:
            raise RuntimeError(f"the exact oracle's MILP failed: {result.message}")
        np.add.at(values, owners, np.round(result.x))
    objective = combo.integer_objective(values, V, q)
    return IntegerSolution(
        values=tuple(int(v) for v in values), objective=objective, feasible=True
    )


def slot_optimum(kernel: "SlotKernel") -> Tuple[Tuple[int, ...], IntegerSolution]:
    """The exact optimum of a slot, by enumerating every route combination.

    Returns the best assignment (the first in enumeration order on ties)
    and its solution.
    """
    best_assignment, best = None, None
    for assignment in itertools.product(*[range(size) for size in kernel.sizes]):
        solution = combination_optimum(kernel, assignment)
        if best is None or solution.objective > best.objective:
            best_assignment, best = assignment, solution
    return best_assignment, best
