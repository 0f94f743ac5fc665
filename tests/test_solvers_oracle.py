"""The exact oracle (repro.solvers.oracle) and the slot kernel measured against it.

The pinned instance set: 40 slots sampled from ``ExperimentConfig.small()``
(seed 11) at ``V = 2500`` and queue prices ``q ∈ {0, 10, 50}``; each instance
is the route combination the per-slot solver deploys.  On it:

* the kernel's objective never exceeds the exact optimum, in adaptive or
  replay mode;
* the oracle equals brute-force enumeration wherever that is affordable;
* relax-and-round reaches the optimum on 118 of the 120 instances and falls
  short on one 8-variable slot (t = 17) by 6.8% at q = 0 and 2.0% at
  q = 10 — a measured finding, pinned so that any change to it shows.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.per_slot import PerSlotSolver
from repro.core.route_selection import ExhaustiveRouteSelector
from repro.experiments.ablations import QUEUE_PRICES, _sample_contexts
from repro.experiments.config import ExperimentConfig
from repro.network.channels import log_multi_channel_success
from repro.solvers.oracle import combination_optimum, slot_optimum

from conftest import bind_kernel

V = 2500.0

#: (slot, queue price) → relative shortfall of relax-and-round on the
#: deployed combination.  Every other pinned instance is solved exactly.
KNOWN_SHORTFALLS = {(17, 0.0): 0.06789, (17, 10.0): 0.01977}

#: Largest allocation box enumerated point by point, except on the known
#: shortfall instances (3.2M allocations each), which are always enumerated.
BRUTE_FORCE_LIMIT = 200_000


def _instances():
    config = ExperimentConfig.small()
    instances = []
    for context in _sample_contexts(config, 40, 11):
        for price in QUEUE_PRICES:
            solution = PerSlotSolver(gibbs_iterations=config.gibbs_iterations).solve(
                context, utility_weight=V, cost_weight=price, seed=3
            )
            selection = solution.decision.selection
            served = [r for r in context.servable_requests() if r in selection]
            assignment = tuple(
                list(context.routes_for(r)).index(selection[r]) for r in served
            )
            kernels = {
                mode: bind_kernel(context, V, price, dual_tolerance=tolerance, requests=served)
                for mode, tolerance in (("adaptive", 1e-4), ("replay", 0.0))
            }
            instances.append((context.t, price, kernels, assignment))
    return instances


@pytest.fixture(scope="module")
def pinned():
    """(slot, price, kernels by mode, assignment, exact solution) per instance."""
    return [
        (t, price, kernels, assignment, combination_optimum(kernels["adaptive"], assignment))
        for t, price, kernels, assignment in _instances()
    ]


def _relative_gap(exact: float, achieved: float) -> float:
    return (exact - achieved) / max(abs(exact), 1e-9)


def brute_force_optimum(kernel, assignment, limit: int, chunk: int = 250_000):
    """Best objective over every integer allocation in the box, or None if too big."""
    combo, capacities = kernel.rows_for(assignment)
    if combo is None:
        return 0.0
    slack = np.floor(capacities + 1e-9) - combo.lower_loads
    if np.any(slack < 0):
        return float("-inf")
    limits = slack[combo.rows_local].min(axis=1).astype(int)
    radices = limits + 1
    total = int(np.prod(radices))
    if total > limit:
        return None
    V_, q = kernel.utility_weight, kernel.cost_weight
    tables = [
        np.asarray(
            [V_ * log_multi_channel_success(float(p), float(n)) - q * n
             for n in range(1, top + 2)]
        )
        for p, top in zip(combo.p, limits)
    ]
    best = float("-inf")
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total))
        extra = np.empty((index.size, combo.n), dtype=np.int64)
        for i, radix in enumerate(radices):
            index, extra[:, i] = np.divmod(index, radix)
        fits = ((combo.membership @ extra.T) <= slack[:, None] + 1e-9).all(axis=0)
        if not fits.any():
            continue
        values = sum(table[extra[fits, i]] for i, table in enumerate(tables))
        best = max(best, float(values.max()))
    return best


def test_kernel_never_exceeds_the_oracle(pinned):
    assert len(pinned) == 120
    for t, price, kernels, assignment, exact in pinned:
        for mode, kernel in kernels.items():
            achieved = kernel.outcome_for(assignment).objective
            assert achieved <= exact.objective + 1e-9 * abs(exact.objective), (t, price, mode)


def test_kernel_reaches_the_oracle_except_the_known_shortfall(pinned):
    shortfalls = {}
    for t, price, kernels, assignment, exact in pinned:
        gaps = {
            mode: _relative_gap(exact.objective, kernel.outcome_for(assignment).objective)
            for mode, kernel in kernels.items()
        }
        # Both modes land on the same integer allocation everywhere.
        assert gaps["adaptive"] == gaps["replay"]
        if gaps["adaptive"] > 1e-12:
            shortfalls[(t, price)] = gaps["adaptive"]
    assert set(shortfalls) == set(KNOWN_SHORTFALLS)
    for key, gap in KNOWN_SHORTFALLS.items():
        assert shortfalls[key] == pytest.approx(gap, abs=5e-5)


def test_oracle_matches_brute_force(pinned):
    checked = 0
    for t, price, kernels, assignment, exact in pinned:
        limit = 4_000_000 if (t, price) in KNOWN_SHORTFALLS else BRUTE_FORCE_LIMIT
        brute = brute_force_optimum(kernels["adaptive"], assignment, limit)
        if brute is None:
            continue
        checked += 1
        assert exact.objective == pytest.approx(brute, rel=1e-12, abs=1e-9), (t, price)
    assert checked >= 85


def test_oracle_solution_is_feasible_and_integral(pinned):
    for _, _, kernels, assignment, exact in pinned:
        combo, capacities = kernels["adaptive"].rows_for(assignment)
        if combo is None:
            continue
        values = np.asarray(exact.values, dtype=float)
        assert exact.feasible
        assert combo.is_feasible(values, capacities, 1e-9)
        assert exact.objective == combo.integer_objective(values, V, kernels["adaptive"].cost_weight)


def test_slot_optimum_bounds_the_exhaustive_selector(diamond_context):
    kernel = bind_kernel(diamond_context, V, 10.0)
    assignment, exact = slot_optimum(kernel)
    selected = ExhaustiveRouteSelector().select(
        diamond_context, diamond_context.servable_requests(), V, 10.0
    )
    assert exact.objective >= selected.objective
    best = max(
        combination_optimum(kernel, combo).objective
        for combo in itertools.product(*[range(size) for size in kernel.sizes])
    )
    assert exact.objective == best
    assert combination_optimum(kernel, assignment).objective == best
