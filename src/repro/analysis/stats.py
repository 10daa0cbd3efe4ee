"""Statistical helpers: bootstrap confidence intervals, seed stability.

The paper reports that "the standard deviation is not shown as it is
largely negligible"; the seed-sweep bench uses these helpers to verify
that claim holds in the reproduction too.
"""

from __future__ import annotations

import math
import typing as _t

from ..sim.rng import Stream


def mean(values: _t.Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: _t.Sequence[float]) -> float:
    """Sample standard deviation (n-1)."""
    if len(values) < 2:
        raise ValueError("stdev needs at least two values")
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def coefficient_of_variation(values: _t.Sequence[float]) -> float:
    """stdev / mean -- the "negligible deviation" check."""
    m = mean(values)
    if m == 0:
        raise ValueError("coefficient of variation undefined for zero mean")
    return stdev(values) / m


def bootstrap_ci(
    values: _t.Sequence[float],
    statistic: _t.Callable[[_t.Sequence[float]], float] = mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 17,
) -> _t.Tuple[float, float]:
    """Percentile-bootstrap confidence interval for any statistic."""
    if not values:
        raise ValueError("bootstrap of empty sequence")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 10:
        raise ValueError("n_resamples too small")
    stream = Stream(seed, "bootstrap")
    n = len(values)
    stats: _t.List[float] = []
    for _ in range(n_resamples):
        resample = [values[stream.randrange(n)] for _ in range(n)]
        stats.append(statistic(resample))
    stats.sort()
    alpha = (1.0 - confidence) / 2.0
    lo_idx = int(alpha * n_resamples)
    hi_idx = min(n_resamples - 1, int((1.0 - alpha) * n_resamples))
    return stats[lo_idx], stats[hi_idx]


def slo_attainment(values: _t.Sequence[float], threshold: float) -> float:
    """Fraction of observations at or below ``threshold`` (an SLO check).

    The operational reading of tail latency: "what share of tasks finished
    within X ms".  Complements percentile tables in the ablation reports.
    """
    if not values:
        raise ValueError("slo attainment of empty sequence")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return sum(1 for v in values if v <= threshold) / len(values)

