"""Metrics, statistics and the paper's theoretical bounds."""

from repro.analysis.metrics import (
    jain_fairness_index,
    success_rate_histogram,
)
from repro.analysis.stats import (
    TrialAggregate,
    aggregate_scalar,
    aggregate_series,
    confidence_interval,
)
from repro.analysis.theory import (
    delta_optimality_gap,
    drift_constant_bound,
    theorem1_violation_bound,
    theorem2_optimality_gap,
)

__all__ = [
    "jain_fairness_index",
    "success_rate_histogram",
    "TrialAggregate",
    "aggregate_scalar",
    "aggregate_series",
    "confidence_interval",
    "delta_optimality_gap",
    "drift_constant_bound",
    "theorem1_violation_bound",
    "theorem2_optimality_gap",
]
