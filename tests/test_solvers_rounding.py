"""Tests of the kernel's integer stage (repro.solvers.rounding): down-round the
relaxed point, then hand out the surplus capacity channel by channel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bind_kernel, star_context


def solve_and_round(successes, capacity, utility_weight=1.0, cost_weight=0.0):
    """(relaxed, rounded, kernel, assignment) of variables sharing one row."""
    kernel = bind_kernel(
        star_context(successes, capacity),
        utility_weight=utility_weight, cost_weight=cost_weight,
    )
    assignment = tuple(0 for _ in successes)
    outcome = kernel.outcome_for(assignment)
    return outcome.relaxed_solution, outcome.integer_solution, kernel, assignment


def is_feasible(kernel, assignment, values):
    combo, capacities = kernel.rows_for(assignment)
    return combo.is_feasible(np.asarray(values, dtype=float), capacities, 1e-9)


class TestRoundDownWithSurplus:
    def test_result_is_integer_and_feasible(self):
        _, rounded, kernel, assignment = solve_and_round([0.5, 0.6, 0.4], capacity=10)
        assert rounded.feasible
        assert all(isinstance(v, int) for v in rounded.values)
        assert is_feasible(kernel, assignment, rounded.values)

    def test_minimum_one_channel_per_variable(self):
        _, rounded, _, _ = solve_and_round([0.5, 0.5], capacity=3)
        assert all(v >= 1 for v in rounded.values)

    def test_paper_equation_eight_gap(self):
        """The rounded value never drops more than 1 below the relaxed one (Eq. 8)."""
        relaxed, rounded, _, _ = solve_and_round(
            [0.45, 0.55, 0.65], capacity=11, cost_weight=0.1
        )
        for relaxed_value, integer_value in zip(relaxed.values, rounded.values):
            assert integer_value >= 1
            assert relaxed_value - integer_value <= 1.0 + 1e-9

    def test_surplus_is_used_when_beneficial(self):
        """With zero cost, integer rounding must not leave usable capacity idle."""
        _, rounded, _, _ = solve_and_round([0.5, 0.5], capacity=7)
        assert sum(rounded.values) == 7

    def test_no_surplus_added_when_cost_exceeds_gain(self):
        """A very high cost weight makes extra channels unprofitable."""
        _, rounded, _, _ = solve_and_round(
            [0.5, 0.5], capacity=10, utility_weight=1.0, cost_weight=5.0
        )
        assert sum(rounded.values) == 2  # the minimum one-channel-per-edge allocation

    def test_infeasible_relaxation_passthrough(self):
        _, rounded, _, _ = solve_and_round([0.5, 0.5, 0.5], capacity=2)
        assert not rounded.feasible

    def test_empty_problem(self):
        kernel = bind_kernel(star_context([0.5], 4), requests=())
        outcome = kernel.outcome_for(())
        assert outcome.allocation == {}
        assert outcome.feasible

    def test_proposition2_bound_on_random_instances(self, rng):
        """Relax-and-round is Δ-optimal: f(relaxed) - f(rounded) <= V·F·L·log(2 - p_min)."""
        for _ in range(10):
            n = int(rng.integers(2, 6))
            successes = rng.uniform(0.3, 0.7, size=n)
            capacity = int(rng.integers(n + 1, 4 * n))
            utility_weight = float(rng.uniform(1.0, 100.0))
            cost_weight = float(rng.uniform(0.0, 2.0))
            relaxed, rounded, _, _ = solve_and_round(
                list(successes), capacity,
                utility_weight=utility_weight, cost_weight=cost_weight,
            )
            if not rounded.feasible:
                continue
            p_min = float(np.min(successes))
            delta = utility_weight * n * 1 * np.log(2.0 - p_min)
            assert relaxed.objective - rounded.objective <= delta + 1e-6

    @given(
        capacity=st.integers(2, 16),
        p=st.floats(0.2, 0.8),
        cost=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_feasible_and_within_one(self, capacity, p, cost):
        relaxed, rounded, kernel, assignment = solve_and_round(
            [p, p], capacity=capacity, cost_weight=cost
        )
        assert rounded.feasible
        assert is_feasible(kernel, assignment, rounded.values)
        for relaxed_value, integer_value in zip(relaxed.values, rounded.values):
            assert relaxed_value - integer_value <= 1.0 + 1e-9
