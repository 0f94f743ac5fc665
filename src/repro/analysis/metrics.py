"""Evaluation metrics.

Beyond the per-run aggregates already exposed by
:class:`~repro.simulation.results.SimulationResult`, the paper's evaluation
uses a success-rate *distribution* across SD pairs (Fig. 4) to argue that
OSCAR distributes resources more fairly than the myopic baselines.  This
module provides that histogram and Jain's fairness index (the standard
scalar fairness measure for the proportional-fairness objective the paper
adopts).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def _require_finite(array: np.ndarray, what: str) -> None:
    """Reject NaN/inf inputs instead of letting them poison a ratio silently.

    ``NaN < 0`` is false, so a NaN entry used to sail past the sign check and
    surface only as a NaN fairness index several tables downstream.
    """
    if array.size and not np.all(np.isfinite(array)):
        raise ValueError(f"{what} requires finite values (got NaN or inf)")


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σ x)² / (n · Σ x²)`` in ``(0, 1]``.

    1 means perfectly equal allocations; ``1/n`` means a single SD pair gets
    everything.  An empty input raises ``ValueError``; an all-zero input is
    defined here as perfectly fair (nobody got anything).
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("fairness of an empty set is undefined")
    _require_finite(array, "fairness")
    if np.any(array < 0):
        raise ValueError("fairness requires non-negative values")
    total_square = float(np.sum(array) ** 2)
    square_total = float(array.size * np.sum(array**2))
    if square_total == 0:
        return 1.0
    return total_square / square_total


def success_rate_histogram(
    probabilities: Sequence[float],
    bins: int = 10,
    value_range: Tuple[float, float] = (0.0, 1.0),
) -> Tuple[List[float], List[float]]:
    """Histogram of per-request EC success probabilities (Fig. 4).

    Returns ``(bin_edges, fractions)`` where ``fractions`` sums to 1 (unless
    the input is empty, in which case all fractions are 0).
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    array = np.asarray(list(probabilities), dtype=float)
    # A NaN probability falls outside every bin, so the fractions would
    # quietly sum to less than 1 — reject it instead.
    _require_finite(array, "success-rate histogram")
    counts, edges = np.histogram(array, bins=bins, range=value_range)
    total = counts.sum()
    fractions = counts / total if total > 0 else np.zeros_like(counts, dtype=float)
    return list(map(float, edges)), list(map(float, fractions))


def success_rate_quantiles(
    probabilities: Sequence[float],
    quantiles: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
) -> Dict[float, float]:
    """Selected quantiles of the per-request success-rate distribution."""
    array = np.asarray(list(probabilities), dtype=float)
    if array.size == 0:
        return {float(q): 0.0 for q in quantiles}
    _require_finite(array, "success-rate quantiles")
    return {float(q): float(np.quantile(array, q)) for q in quantiles}


def relative_improvement(candidate: float, baseline: float) -> float:
    """Relative improvement of ``candidate`` over ``baseline`` (positive = better).

    Defined as ``(candidate − baseline) / |baseline|``; if the baseline is 0
    the improvement is ``inf`` (or 0 when both are 0).
    """
    if baseline == 0:
        return 0.0 if candidate == 0 else float("inf")
    return (candidate - baseline) / abs(baseline)
