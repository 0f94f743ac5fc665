"""Benchmark: ablation studies of the reproduction's design choices.

* Gibbs route selection vs exhaustive search (solution quality and number of
  allocation solves).
* The per-slot solver (slot kernel) vs the exact per-slot oracle.
* Analytic edge-success formula (paper Eq. 1) vs attempt-level Monte-Carlo.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations


@pytest.mark.benchmark(group="ablations")
def test_ablation_route_selection(benchmark, parameter_sweep_config):
    result = benchmark.pedantic(
        ablations.run_route_selection_ablation,
        kwargs={"config": parameter_sweep_config, "num_slots": 6, "seed": 7},
        rounds=1,
        iterations=1,
    )
    # Exhaustive search is exact, so its objective is never worse than Gibbs;
    # the Gibbs gap must stay small relative to the objective scale (V=2500).
    assert result.mean_objective_gap >= -1e-6
    assert result.mean_objective_gap <= 0.05 * parameter_sweep_config.trade_off_v
    print()
    print(result.format_table())


@pytest.mark.benchmark(group="ablations")
def test_ablation_relaxation_solver(benchmark, parameter_sweep_config):
    result = benchmark.pedantic(
        ablations.run_solver_ablation,
        kwargs={"config": parameter_sweep_config, "num_slots": 6, "seed": 11},
        rounds=1,
        iterations=1,
    )
    assert result.instances > 0
    assert result.mean_relative_gap < 0.02
    assert result.max_relative_gap < 0.10
    print()
    print(result.format_table())


@pytest.mark.benchmark(group="ablations")
def test_ablation_link_model(benchmark):
    result = benchmark.pedantic(
        ablations.run_link_model_ablation,
        kwargs={"trials": 20000},
        rounds=1,
        iterations=1,
    )
    assert result.max_absolute_error() < 0.02
    print()
    print(result.format_table())
