"""Building blocks of the slot kernel's continuous relaxation.

The paper's Algorithm 2 relaxes the integrality constraint ``n_e ∈ Z₊₊`` to
``n_e >= 1``; Proposition 1 shows the relaxed problem is convex (the
objective is a sum of concave ``V·log P_e(n_e) − q·n_e`` terms and the
constraints are linear).  The kernel (:mod:`repro.solvers.kernel`) dualises
the capacity constraints; for fixed multipliers the Lagrangian separates per
variable and each one-dimensional subproblem has the closed-form maximiser
of :func:`_closed_form_best_response`.  The repaired primal point is then
polished by :func:`cyclic_coordinate_polish`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ContinuousSolution:
    """Solution of the continuous relaxation (the paper's ``ñ*``)."""

    values: Tuple[float, ...]
    objective: float
    feasible: bool
    iterations: int = 0

    def as_array(self) -> np.ndarray:
        """The allocation vector as a numpy array."""
        return np.asarray(self.values, dtype=float)


def _closed_form_best_response(
    prices: np.ndarray,
    slot_successes: np.ndarray,
    utility_weight: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Maximise ``V log(1-(1-p)^x) - price·x`` per variable over ``[lower, upper]``.

    The stationary point solves ``V·a·(1-p)^x / (1-(1-p)^x) = price`` with
    ``a = -ln(1-p)``, i.e. ``x = ln((1+s)/s)/a`` where ``s = price/(V·a)``.
    Non-positive prices push the allocation to the upper bound; degenerate
    probabilities (p=0 or p=1) fall back to the bounds directly.
    """
    x = np.empty_like(prices)
    a = -np.log1p(-np.clip(slot_successes, 0.0, 1.0 - 1e-15))
    degenerate = (slot_successes <= 0.0) | (slot_successes >= 1.0) | (a <= 0.0)
    non_positive_price = prices <= 0.0

    # Non-positive price: utility is increasing, take the upper bound.
    x[non_positive_price] = upper[non_positive_price]

    # Degenerate probabilities with positive price: allocate the minimum
    # (p=1 gains nothing from more channels; p=0 gains nothing at all).
    deg_pos = degenerate & ~non_positive_price
    x[deg_pos] = lower[deg_pos]

    regular = ~degenerate & ~non_positive_price
    if np.any(regular):
        s = prices[regular] / (utility_weight * a[regular])
        with np.errstate(divide="ignore", over="ignore"):
            stationary = np.log1p(1.0 / s) / a[regular]
        x[regular] = stationary
    return np.clip(x, lower, upper)


def cyclic_coordinate_polish(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    successes: np.ndarray,
    utility_weight: float,
    cost_weight: float,
    loads: np.ndarray,
    capacities: np.ndarray,
    var_rows: Sequence[Sequence[int]],
    rounds: int,
) -> np.ndarray:
    """Exact cyclic coordinate maximisation within residual capacities.

    Each coordinate is set to its closed-form maximiser given the residual
    capacity of the constraints it belongs to (``var_rows[i]`` lists the
    constraint rows of variable ``i``; ``loads`` is updated in place
    alongside ``x``).  Scalar arithmetic per coordinate keeps the loop
    cheap on the kernel's small instances.
    """
    price = float(cost_weight)
    n = int(x.shape[0])
    for _ in range(rounds):
        for i in range(n):
            hi = float(upper[i])
            xi = float(x[i])
            rows = var_rows[i]
            for r in rows:
                headroom = float(capacities[r]) - (float(loads[r]) - xi)
                if headroom < hi:
                    hi = headroom
            lo = float(lower[i])
            if hi < lo:
                continue
            if price <= 0.0:
                best = hi
            else:
                p_i = float(successes[i])
                if p_i <= 0.0 or p_i >= 1.0:
                    best = lo
                else:
                    a_i = -math.log1p(-min(p_i, 1.0 - 1e-15))
                    va_i = utility_weight * a_i
                    if va_i <= 0.0:
                        # s would be +inf: the stationary point is 0,
                        # clipped up to the lower bound.
                        best = lo
                    else:
                        s = price / va_i
                        if s == 0.0:
                            # Underflowed price: 1/s is +inf, the stationary
                            # point exceeds any bound.
                            best = hi
                        else:
                            best = math.log1p(1.0 / s) / a_i
                            if best < lo:
                                best = lo
                            elif best > hi:
                                best = hi
            delta = best - xi
            if abs(delta) > 1e-12:
                for r in rows:
                    loads[r] += delta
                x[i] = best
    return x
