"""Aggregation of multi-trial experiment results.

The paper reports results averaged over 5 trial simulations; these helpers
aggregate scalar metrics and whole time series across trials and attach
confidence intervals so the benchmark output can state how stable each
number is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Two-sided 95% Student-t quantiles ``t.ppf(0.975, df)`` by degrees of
#: freedom, equal bit for bit to scipy's (pinned by a test).  They cover the
#: trial counts the figures run with; other cases ask scipy.
_T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    4: 2.7764451051977934,
    5: 2.5705818356363146,
    6: 2.4469118511449786,
    7: 2.364624251592784,
    8: 2.306004135204166,
    9: 2.262157162798205,
    10: 2.228138851986274,
}


def t_quantile(probability: float, df: int) -> float:
    """Student-t quantile ``t.ppf(probability, df)``.

    Served from a table for the 95% intervals of up to 11 trials, so the
    common path never imports scipy.
    """
    if probability == 0.975 and df in _T_975:
        return _T_975[df]
    from scipy import stats as scipy_stats

    return float(scipy_stats.t.ppf(probability, df))


def merge_stat_mappings(stats_mappings) -> Optional[Dict[str, object]]:
    """Sum counter mappings key by key; ``None`` when none are present.

    The one merge of the stats channel: ``RunRecord.stats(layer)`` sums a
    layer's per-result mappings with it, and ``StudyResult.stats(layer)``
    the per-point sums.  Non-mapping entries contribute nothing, so results
    without the layer are skipped.  Values keep their builtin type: counters
    stay ``int`` and accumulators like a fidelity sum stay ``float``.  Each
    key's sum runs in mapping order, so a merge is bit-identical for any
    worker layout.
    """
    totals: Dict[str, object] = {}
    found = False
    for stats in stats_mappings:
        if not isinstance(stats, Mapping):
            continue
        found = True
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals if found else None


@dataclass(frozen=True)
class TrialAggregate:
    """Mean, standard deviation and confidence half-width of a scalar metric."""

    mean: float
    std: float
    count: int
    confidence: float
    half_width: float

    @property
    def low(self) -> float:
        """Lower end of the confidence interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper end of the confidence interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4f} ± {self.half_width:.4f} (n={self.count})"


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Two-sided Student-t confidence interval of the mean of ``values``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("cannot compute a confidence interval of nothing")
    mean = float(np.mean(array))
    if array.size == 1:
        return (mean, mean)
    # scipy.stats.sem's own expression (ddof=1).
    sem = float(np.std(array, ddof=1) / array.size ** 0.5)
    if sem == 0 or math.isnan(sem):
        return (mean, mean)
    half = float(sem * t_quantile((1.0 + confidence) / 2.0, array.size - 1))
    return (mean - half, mean + half)


def aggregate_scalar(values: Sequence[float], confidence: float = 0.95) -> TrialAggregate:
    """Aggregate one scalar metric across trials."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("cannot aggregate an empty sequence")
    low, high = confidence_interval(array, confidence)
    mean = float(np.mean(array))
    return TrialAggregate(
        mean=mean,
        std=float(np.std(array, ddof=1)) if array.size > 1 else 0.0,
        count=int(array.size),
        confidence=confidence,
        half_width=float(high - mean),
    )


def aggregate_series(
    series: Sequence[Sequence[float]],
) -> Tuple[List[float], List[float]]:
    """Element-wise mean and standard deviation of several equal-length series.

    Series of unequal length are truncated to the shortest one (a trial that
    ended early should not silently extend the average with zeros).
    """
    if not series:
        raise ValueError("cannot aggregate an empty collection of series")
    length = min(len(s) for s in series)
    if length == 0:
        return [], []
    matrix = np.asarray([list(s)[:length] for s in series], dtype=float)
    means = list(map(float, matrix.mean(axis=0)))
    stds = list(map(float, matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1 else np.zeros(length)))
    return means, stds


def downsample(series: Sequence[float], points: int) -> List[float]:
    """Pick ``points`` evenly spaced samples from a series (for compact reports)."""
    if points <= 0:
        raise ValueError(f"points must be positive, got {points}")
    values = list(series)
    if len(values) <= points:
        return [float(v) for v in values]
    indices = np.linspace(0, len(values) - 1, points).round().astype(int)
    return [float(values[i]) for i in indices]
