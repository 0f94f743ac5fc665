"""Rounding of relaxed allocations (Algorithm 2, step 4).

The paper rounds the relaxed optimum ``ñ*`` by *down-rounding* each value
(never below the lower bound of one channel) and then re-allocating any
capacity surplus to edges that can still accept it.  Down-rounding keeps
the allocation feasible, the surplus pass only adds channels where all
constraints still have slack, and the resulting integer solution satisfies
``n* >= 1`` and ``ñ* − n* <= 1`` (paper, Eq. 8), which drives the
``Δ``-optimality bound of Proposition 2.

The slot kernel down-rounds in place and hands the surplus out with the
vectorised :func:`surplus_pass` over its flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.network.channels import log_multi_channel_success


@dataclass(frozen=True)
class IntegerSolution:
    """Rounded integer solution (the paper's ``N*``)."""

    values: Tuple[int, ...]
    objective: float
    feasible: bool

    def as_array(self) -> np.ndarray:
        """The allocation vector as a numpy array of ints."""
        return np.asarray(self.values, dtype=int)


#: Minimal gain that justifies handing out one more surplus channel.
_GAIN_EPSILON = 1e-12


def _marginal_gain(
    slot_success: float, value: float, utility_weight: float, cost_weight: float
) -> float:
    """Objective gain of one extra channel: ``V·[log P(n+1) − log P(n)] − q``.

    ``-inf`` marks variables that can never profit (``p = 0``, whose
    ``log P`` is ``-inf`` at every allocation).
    """
    if slot_success <= 0.0:
        return float("-inf")
    gain = log_multi_channel_success(slot_success, value + 1.0) - log_multi_channel_success(
        slot_success, value
    )
    if math.isnan(gain):
        return float("-inf")
    return utility_weight * gain - cost_weight


def surplus_pass(
    values: np.ndarray,
    upper: np.ndarray,
    slot_successes: Sequence[float],
    utility_weight: float,
    cost_weight: float,
    loads: np.ndarray,
    capacities: np.ndarray,
    rows: np.ndarray,
    max_passes: int,
) -> None:
    """Greedily hand out leftover capacity, one channel at a time (in place).

    ``values`` (float array of integral values) and ``loads`` are updated in
    place; row ``i`` of the 2-D index array ``rows`` lists the constraint
    rows variable ``i`` belongs to.  Each pass increments the variable with
    the largest positive marginal gain among those whose constraints all
    retain at least one unit of slack; near-ties (within 1e-12) resolve to
    the lowest index.
    """
    n = int(values.shape[0])
    if n == 0 or max_passes <= 0:
        return

    # Initial marginal gains, vectorised: V·[log P(n+1) − log P(n)] − q with
    # the degenerate probabilities pinned exactly as _marginal_gain pins them.
    p = np.asarray(slot_successes, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log1p(-np.clip(p, 0.0, 1.0 - 1e-15))
        new_log = np.log(-np.expm1((values + 1.0) * lp))
        old_log = np.log(-np.expm1(values * lp))
        gains = utility_weight * (new_log - old_log) - cost_weight
    gains[p <= 0.0] = -math.inf
    gains[p >= 1.0] = -cost_weight
    gains[np.isnan(gains)] = -math.inf

    for _ in range(max_passes):
        slack = capacities - loads
        eligible = (values + 1.0 <= upper + 1e-9) & (
            slack[rows].min(axis=1) >= 1.0 - 1e-9
        )
        masked = np.where(eligible, gains, -math.inf)
        best_gain = float(masked.max())
        if best_gain <= _GAIN_EPSILON:
            break
        if math.isinf(best_gain):
            best_index = int(np.argmax(np.isposinf(masked)))
        else:
            best_index = int(np.argmax(masked > best_gain - _GAIN_EPSILON))
        values[best_index] += 1.0
        loads[rows[best_index]] += 1.0
        gains[best_index] = _marginal_gain(
            float(slot_successes[best_index]),
            float(values[best_index]),
            utility_weight,
            cost_weight,
        )
