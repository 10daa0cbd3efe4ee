"""Exact collections of observations.

The Figure 2 reproduction keeps *exact* task latencies: the run sizes fit
in memory and the paper's claims are about specific percentiles.
"""

from __future__ import annotations

import math
import typing as _t


def exact_quantile(sorted_values: _t.Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending-sorted sequence.

    Uses the (n-1)-interpolation convention (same as ``numpy.percentile``
    with ``interpolation='linear'``).
    """
    if not sorted_values:
        raise ValueError("cannot take quantile of empty data")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"quantile {q} outside [0, 1]")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(sorted_values[lo])
    frac = pos - lo
    lo_v = float(sorted_values[lo])
    hi_v = float(sorted_values[hi])
    # lo + delta*frac (not the convex-combination form): exact when the two
    # neighbours are equal, and never rounds outside [lo_v, hi_v].
    return lo_v + (hi_v - lo_v) * frac


class ExactSample:
    """Stores every observation; exact quantiles on demand."""

    def __init__(self) -> None:
        self._values: _t.List[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    def record_many(self, values: _t.Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values.sort()
            self._sorted = True

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("empty sample has no mean")
        return sum(self._values) / len(self._values)

    @property
    def min(self) -> float:
        if not self._values:
            raise ValueError("empty sample has no min")
        self._ensure_sorted()
        return self._values[0]

    @property
    def max(self) -> float:
        if not self._values:
            raise ValueError("empty sample has no max")
        self._ensure_sorted()
        return self._values[-1]

    def quantile(self, q: float) -> float:
        self._ensure_sorted()
        return exact_quantile(self._values, q)

    def percentile(self, p: float) -> float:
        return self.quantile(p / 100.0)

    def values(self) -> _t.List[float]:
        """A copy of all observations (sorted ascending)."""
        self._ensure_sorted()
        return list(self._values)

    def stdev(self) -> float:
        """Sample standard deviation (n-1 denominator)."""
        n = len(self._values)
        if n < 2:
            raise ValueError("need at least two observations for stdev")
        mean = self.mean
        var = sum((v - mean) ** 2 for v in self._values) / (n - 1)
        return math.sqrt(var)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        if not self._values:
            return "<ExactSample empty>"
        return f"<ExactSample n={len(self._values)} mean={self.mean:.6g}>"
