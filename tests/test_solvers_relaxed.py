"""Tests of the continuous relaxation: the closed-form best response and the
slot kernel's dual-decomposition solve, checked against the exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.oracle import combination_optimum
from repro.solvers.relaxed import _closed_form_best_response

from conftest import bind_kernel, star_context


def relaxed_solve(successes, capacity, utility_weight=1.0, cost_weight=0.0):
    """The kernel's relaxed and rounded solution when all variables share one row."""
    kernel = bind_kernel(
        star_context(successes, capacity),
        utility_weight=utility_weight, cost_weight=cost_weight,
    )
    assignment = tuple(0 for _ in successes)
    return kernel, assignment, kernel.outcome_for(assignment)


class TestClosedFormBestResponse:
    def test_zero_price_takes_upper_bound(self):
        x = _closed_form_best_response(
            np.array([0.0]), np.array([0.5]), 1.0, np.array([1.0]), np.array([7.0])
        )
        assert x[0] == pytest.approx(7.0)

    def test_high_price_takes_lower_bound(self):
        x = _closed_form_best_response(
            np.array([1e9]), np.array([0.5]), 1.0, np.array([1.0]), np.array([7.0])
        )
        assert x[0] == pytest.approx(1.0)

    def test_stationary_point_is_interior_optimum(self):
        """The returned value maximises V log(1-(1-p)^x) - price x."""
        price, p, v = 0.2, 0.5, 1.0
        x = _closed_form_best_response(
            np.array([price]), np.array([p]), v, np.array([1.0]), np.array([50.0])
        )[0]

        def objective(value):
            return v * math.log(1 - (1 - p) ** value) - price * value

        assert objective(x) >= objective(x + 0.01) - 1e-12
        assert objective(x) >= objective(x - 0.01) - 1e-12

    def test_degenerate_probability_one(self):
        x = _closed_form_best_response(
            np.array([0.5]), np.array([1.0]), 1.0, np.array([1.0]), np.array([5.0])
        )
        assert x[0] == pytest.approx(1.0)

    @given(
        price=st.floats(0.001, 10.0),
        p=st.floats(0.05, 0.95),
        v=st.floats(0.5, 3000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bounds(self, price, p, v):
        x = _closed_form_best_response(
            np.array([price]), np.array([p]), v, np.array([1.0]), np.array([9.0])
        )[0]
        assert 1.0 - 1e-9 <= x <= 9.0 + 1e-9


class TestDualDecompositionSolver:
    def test_symmetric_problem_splits_evenly(self):
        _, _, outcome = relaxed_solve([0.5, 0.5], capacity=6)
        relaxed = outcome.relaxed_solution
        assert relaxed.feasible
        assert relaxed.values[0] == pytest.approx(relaxed.values[1], abs=0.1)
        assert sum(relaxed.values) == pytest.approx(6.0, abs=0.05)

    def test_uses_whole_capacity_when_cost_free(self):
        _, _, outcome = relaxed_solve([0.4, 0.6, 0.5], capacity=9)
        assert sum(outcome.relaxed_solution.values) == pytest.approx(9.0, abs=0.1)

    def test_positive_cost_weight_reduces_spending(self):
        _, _, free = relaxed_solve([0.5, 0.5], capacity=20, cost_weight=0.0)
        _, _, priced = relaxed_solve([0.5, 0.5], capacity=20, cost_weight=0.3)
        assert sum(priced.relaxed_solution.values) < sum(free.relaxed_solution.values)

    def test_interior_price_solution_matches_closed_form(self):
        """Without binding constraints the optimum is the per-variable stationary point."""
        _, _, outcome = relaxed_solve([0.5], capacity=100, cost_weight=0.2)
        expected = _closed_form_best_response(
            np.array([0.2]), np.array([0.5]), 1.0, np.array([1.0]), np.array([100.0])
        )[0]
        assert outcome.relaxed_solution.values[0] == pytest.approx(expected, rel=1e-3)

    def test_infeasible_lower_bound_reported(self):
        _, _, outcome = relaxed_solve([0.5, 0.5, 0.5], capacity=2)
        assert not outcome.relaxed_solution.feasible
        assert not outcome.feasible

    def test_empty_problem(self):
        kernel = bind_kernel(star_context([0.5], 4), requests=())
        outcome = kernel.outcome_for(())
        assert outcome.allocation == {}
        assert outcome.feasible and outcome.cost == 0

    def test_no_constraints_uses_upper_bounds(self):
        # Zero price: the utility only grows, so the variable takes all the
        # room its rows leave it.
        _, _, outcome = relaxed_solve([0.5], capacity=4)
        assert outcome.relaxed_solution.values[0] == pytest.approx(4.0)

    def test_solution_always_feasible_on_feasible_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            successes = rng.uniform(0.2, 0.8, size=n)
            capacity = int(rng.integers(n, 3 * n + 1))
            kernel, assignment, outcome = relaxed_solve(
                list(successes), capacity, cost_weight=float(rng.uniform(0, 0.5))
            )
            relaxed = outcome.relaxed_solution
            assert relaxed.feasible
            combo, capacities = kernel.rows_for(assignment)
            assert combo.is_feasible(relaxed.as_array(), capacities, 1e-6)


class TestSolverAgreement:
    """Relax-and-round must stay close to the exact integer optimum."""

    def test_objective_close_to_oracle(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 7))
            successes = list(rng.uniform(0.25, 0.75, size=n))
            capacity = int(rng.integers(n + 1, 3 * n + 3))
            kernel, assignment, outcome = relaxed_solve(
                successes, capacity,
                utility_weight=float(rng.uniform(1.0, 5.0)),
                cost_weight=float(rng.uniform(0.05, 1.0)),
            )
            exact = combination_optimum(kernel, assignment)
            assert outcome.objective <= exact.objective + 1e-9
            assert outcome.objective >= exact.objective - 0.02 * abs(exact.objective) - 1e-6

    def test_large_v_problems_agree(self, rng):
        """OSCAR-style weights (V=2500, q in the tens) must not break the solver."""
        for _ in range(5):
            successes = list(rng.uniform(0.4, 0.6, size=4))
            kernel, assignment, outcome = relaxed_solve(
                successes, 14, utility_weight=2500.0,
                cost_weight=float(rng.uniform(0.0, 50.0)),
            )
            exact = combination_optimum(kernel, assignment)
            assert outcome.objective <= exact.objective + 1e-9
            assert outcome.objective >= exact.objective - 0.02 * abs(exact.objective)
