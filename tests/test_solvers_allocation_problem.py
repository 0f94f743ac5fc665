"""Tests of the per-slot allocation problem as the slot kernel compiles it.

For a fixed route combination the kernel holds P2 as a compiled combination
(:meth:`repro.solvers.kernel.SlotKernel.rows_for`): one variable per
(request, edge) with its single-channel success ``p``, one capacity row per
active node, edge and budget constraint, and the objective
``V·Σ log P_i(n_i) − q·Σ n_i``.
"""

import math

import numpy as np
import pytest

from repro.network.channels import log_multi_channel_success, multi_channel_success
from repro.solvers.oracle import _increment_gains

from conftest import bind_kernel, star_context


def two_variable_combo(capacity: int = 6, utility_weight: float = 1.0, cost_weight: float = 0.0,
                       budget_cap=None):
    """Two variables (p = 0.5) sharing the hub's ``capacity`` qubits."""
    kernel = bind_kernel(
        star_context([0.5, 0.5], capacity),
        utility_weight=utility_weight, cost_weight=cost_weight, budget_cap=budget_cap,
    )
    combo, capacities = kernel.rows_for((0, 0))
    return kernel, combo, capacities


class TestAllocationVariable:
    def test_success_formula(self):
        assert multi_channel_success(0.5, 2) == pytest.approx(0.75)
        assert log_multi_channel_success(0.5, 2) == pytest.approx(math.log(0.75))

    def test_zero_allocation_gives_minus_inf_log(self):
        assert log_multi_channel_success(0.5, 0) == float("-inf")

    def test_marginal_gain_decreasing(self):
        # Concavity in integer n: what makes the oracle's MILP exact.
        gains = _increment_gains(0.4, 6, 1.0, 0.0)
        assert len(gains) == 6
        assert all(b < a for a, b in zip(gains, gains[1:]))


class TestAllocationProblem:
    def test_objective_combines_utility_and_cost(self):
        _, combo, _ = two_variable_combo(utility_weight=2.0, cost_weight=0.5)
        x = np.array([1.0, 2.0])
        expected = 2.0 * (math.log(0.5) + math.log(0.75)) - 0.5 * 3.0
        assert combo.objective(x, 2.0, 0.5) == pytest.approx(expected)
        assert combo.integer_objective(x, 2.0, 0.5) == pytest.approx(expected)

    def test_upper_bounds_tightened_from_constraints(self):
        _, combo, capacities = two_variable_combo(capacity=6)
        # Each variable can use at most capacity minus the other's lower bound.
        assert list(combo.upper_bounds(capacities)) == [5.0, 5.0]

    def test_feasibility_checks(self):
        _, combo, capacities = two_variable_combo(capacity=6)
        assert combo.is_feasible(np.array([1.0, 1.0]), capacities, 1e-6)
        assert combo.is_feasible(np.array([3.0, 3.0]), capacities, 1e-6)
        assert not combo.is_feasible(np.array([3.5, 3.0]), capacities, 1e-6)
        assert not combo.is_feasible(np.array([0.5, 1.0]), capacities, 1e-6)  # below 1

    def test_lower_bound_feasibility(self):
        fits, _, _ = two_variable_combo(capacity=2)
        assert fits.outcome_for((0, 0)).feasible
        too_small, _, _ = two_variable_combo(capacity=1)
        assert not too_small.outcome_for((0, 0)).feasible

    def test_repair_feasibility_restores_constraints(self):
        _, combo, capacities = two_variable_combo(capacity=4)
        upper = combo.upper_bounds(capacities)
        repaired = combo.repair(np.array([4.0, 4.0]), capacities, upper)
        assert combo.is_feasible(repaired, capacities, 1e-6)
        assert repaired.sum() <= 4.0 + 1e-9

    def test_repair_keeps_lower_bounds(self):
        _, combo, capacities = two_variable_combo(capacity=4)
        upper = combo.upper_bounds(capacities)
        repaired = combo.repair(np.array([10.0, 1.0]), capacities, upper)
        assert all(value >= 1.0 - 1e-9 for value in repaired)

    def test_repair_noop_when_feasible(self):
        _, combo, capacities = two_variable_combo(capacity=6)
        x = np.array([2.0, 3.0])
        upper = combo.upper_bounds(capacities)
        assert np.allclose(combo.repair(x.copy(), capacities, upper), x)

    def test_budget_cap_becomes_constraint(self):
        _, plain, _ = two_variable_combo(capacity=20)
        _, capped, capacities = two_variable_combo(capacity=20, budget_cap=3.0)
        assert capped.m == plain.m + 1
        # The budget row is last and covers every variable.
        assert capacities[-1] == 3.0
        assert list(capped.membership[-1]) == [1.0, 1.0]
        assert not capped.is_feasible(np.array([2.0, 2.0]), capacities, 1e-6)
