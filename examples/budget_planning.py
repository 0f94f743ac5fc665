"""Budget planning: how much QDN budget does a target success rate need?

The user-centric angle of the paper is that the QDN user pays for every
qubit/channel it occupies and operates under a long-term budget.  This
example answers the operational question a user (or a DQC service owner)
actually faces: *given my workload, how does the achievable EC success rate
scale with the budget I am willing to spend, and where does the trade-off
parameter V put me on the performance/violation curve?*

It sweeps the budget for OSCAR and the myopic baselines, prints the
success-rate-vs-budget table (the paper's Fig. 5 at example scale), and then
sweeps V at a fixed budget to show the performance/budget-violation
trade-off of Fig. 7, annotated with the Theorem-1 violation bound.

Run it with::

    python examples/budget_planning.py
"""

from __future__ import annotations

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig


def main() -> None:
    config = ExperimentConfig(
        num_nodes=10,
        horizon=25,
        total_budget=625.0,  # C/T = 25, the paper's per-slot share
        trials=1,
        max_pairs=4,
        gibbs_iterations=20,
        num_candidate_routes=3,
    )

    print("=== Budget sweep (paper Fig. 5, example scale) ===")
    budgets = [0.5 * config.total_budget, config.total_budget, 1.5 * config.total_budget,
               2.0 * config.total_budget]
    budget_result = figures.run("fig5", config, values=budgets, seed=5)
    oscar_rates = budget_result.data["success_rate"]["OSCAR"]
    print(budget_result.format_tables())
    print()

    # Find the cheapest budget at which OSCAR reaches a target success rate.
    target = 0.9
    reached = [
        (budget, rate)
        for budget, rate in zip(budget_result.data["budgets"], oscar_rates)
        if rate >= target
    ]
    if reached:
        budget, rate = reached[0]
        print(f"OSCAR first reaches a {target:.0%} average EC success rate at "
              f"budget C = {budget:g} (measured {rate:.3f}).")
    else:
        best = max(oscar_rates)
        print(f"No swept budget reaches {target:.0%}; the best OSCAR achieves is {best:.3f}.")
    print()

    print("=== Trade-off parameter sweep (paper Fig. 7, example scale) ===")
    v_result = figures.run("fig7", config, values=(250.0, 2500.0, 25000.0), seed=6)
    print(v_result.format_tables())
    print()
    print("Reading the table: a larger V buys utility/success rate at the price of")
    print("using more qubits (potentially violating the budget); the last column is")
    print("the Theorem-1 upper bound on the per-slot violation for that V.")


if __name__ == "__main__":
    main()
