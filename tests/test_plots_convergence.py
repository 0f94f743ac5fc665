"""Tests for repro.analysis.convergence, plus the diurnal request process
added to the workload layer."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    analyse_trace,
    compare_runs,
    improvement_curve,
    iterations_to_reach,
)
from repro.solvers.gibbs import GibbsResult, GibbsSampler
from repro.workload.requests import DiurnalRequestProcess

from conftest import make_line_graph


class TestConvergence:
    def run_sampler(self, **kwargs):
        target = (2, 1, 0)

        def objective(assignment):
            return -float(sum((a - b) ** 2 for a, b in zip(assignment, target)))

        sampler = GibbsSampler(gamma=0.5, iterations=200, track_trace=True, **kwargs)
        return sampler.optimise([3, 3, 3], objective, seed=3)

    def test_analyse_trace_fields(self):
        report = analyse_trace(self.run_sampler())
        assert report.iterations == 200
        assert report.first_hit_iteration is not None
        assert 0.0 <= report.acceptance_rate <= 1.0
        assert 0.0 < report.tail_fraction_at_best <= 1.0
        assert report.improvement >= 0.0

    def test_analyse_trace_requires_trace(self):
        result = GibbsResult(
            best_assignment=(0,), best_objective=1.0, final_assignment=(0,),
            final_objective=1.0, iterations=5, acceptance_count=1, objective_trace=(),
        )
        with pytest.raises(ValueError):
            analyse_trace(result)

    def test_improvement_curve_is_monotone(self):
        curve = improvement_curve(self.run_sampler())
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(self.run_sampler().best_objective)

    def test_iterations_to_reach(self):
        result = self.run_sampler()
        assert iterations_to_reach(result, result.best_objective) is not None
        assert iterations_to_reach(result, result.best_objective + 1.0) is None

    def test_compare_runs_structure(self):
        comparison = compare_runs(self.run_sampler(), self.run_sampler())
        assert set(comparison.keys()) >= {
            "objective_difference",
            "baseline_first_hit",
            "candidate_first_hit",
            "candidate_faster",
        }
        assert comparison["objective_difference"] == pytest.approx(0.0)


class TestDiurnalRequestProcess:
    def test_rate_oscillates_between_bounds(self):
        process = DiurnalRequestProcess(period=10, min_rate=1.0, max_rate=5.0)
        rates = [process.expected_rate(t) for t in range(10)]
        assert min(rates) == pytest.approx(1.0, abs=1e-9)
        assert max(rates) == pytest.approx(5.0, abs=1e-6)

    def test_rate_is_periodic(self):
        process = DiurnalRequestProcess(period=8, min_rate=0.5, max_rate=3.0)
        assert process.expected_rate(3) == pytest.approx(process.expected_rate(11))

    def test_sampling_respects_truncation(self):
        graph = make_line_graph(num_nodes=5)
        rng = np.random.default_rng(1)
        process = DiurnalRequestProcess(period=6, min_rate=4.0, max_rate=10.0, max_pairs=5)
        for t in range(30):
            assert len(process.sample(t, graph, rng)) <= 5

    def test_busy_phase_has_more_requests_on_average(self):
        graph = make_line_graph(num_nodes=6)
        rng = np.random.default_rng(2)
        process = DiurnalRequestProcess(period=20, min_rate=0.5, max_rate=5.0, max_pairs=20)
        quiet = [len(process.sample(0 + 20 * k, graph, rng)) for k in range(100)]
        busy = [len(process.sample(10 + 20 * k, graph, rng)) for k in range(100)]
        assert np.mean(busy) > np.mean(quiet)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiurnalRequestProcess(period=0)
        with pytest.raises(ValueError):
            DiurnalRequestProcess(min_rate=3.0, max_rate=1.0)
