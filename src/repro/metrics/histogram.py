"""Log-bucketed latency histogram (HDR-histogram style).

Records values with a bounded *relative* error per bucket while using O(1)
memory per recorded value-range.  This is what long benchmark runs use so
that recording ~10^6 request latencies does not hold every sample in memory.

Design: the value range ``[min_value, max_value]`` is covered by geometric
buckets; bucket ``i`` covers ``min_value * growth**i`` where ``growth`` is
chosen from the requested number of significant digits.  Quantile queries
interpolate linearly inside the winning bucket, which bounds the relative
quantile error by the bucket width.
"""

from __future__ import annotations

import math
import typing as _t


class LogHistogram:
    """Fixed-relative-precision histogram over positive values.

    Parameters
    ----------
    min_value:
        Smallest trackable value; smaller recordings clamp to it.
    max_value:
        Largest trackable value; larger recordings clamp to it (and are
        counted in ``clamped_high`` so the distortion is observable).
    precision:
        Bound on relative bucket width, e.g. ``0.01`` for ~1% quantile error.
    """

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 1e3,
        precision: float = 0.01,
    ) -> None:
        if not (0 < min_value < max_value):
            raise ValueError("need 0 < min_value < max_value")
        if not (0 < precision < 1):
            raise ValueError("precision must be in (0, 1)")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.precision = float(precision)
        self._log_min = math.log(min_value)
        self._log_growth = math.log1p(precision)
        n_buckets = int(math.ceil((math.log(max_value) - self._log_min) / self._log_growth)) + 1
        self._counts = [0] * n_buckets
        self.count = 0
        self.clamped_low = 0
        self.clamped_high = 0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ----------------------------------------------------------
    def _index(self, value: float) -> int:
        return int((math.log(value) - self._log_min) / self._log_growth)

    def record(self, value: float) -> None:
        """Record one observation (values outside range clamp, with count)."""
        if value != value or value < 0:  # NaN or negative
            raise ValueError(f"cannot record {value!r}")
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value < self.min_value:
            self.clamped_low += 1
            idx = 0
        elif value > self.max_value:
            self.clamped_high += 1
            idx = len(self._counts) - 1
        else:
            idx = min(self._index(value), len(self._counts) - 1)
        self._counts[idx] += 1
        self.count += 1

    # -- queries --------------------------------------------------------------
    def _bucket_bounds(self, idx: int) -> _t.Tuple[float, float]:
        lo = math.exp(self._log_min + idx * self._log_growth)
        hi = math.exp(self._log_min + (idx + 1) * self._log_growth)
        return lo, hi

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], interpolated within the bucket."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            raise ValueError("empty histogram has no quantiles")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        target = q * self.count
        seen = 0.0
        for idx, c in enumerate(self._counts):
            if c == 0:
                continue
            if seen + c >= target:
                lo, hi = self._bucket_bounds(idx)
                frac = (target - seen) / c
                value = lo + (hi - lo) * frac
                # Clamp to the observed extrema so interpolation never
                # reports values outside the recorded range.
                return min(max(value, self._min), self._max)
            seen += c
        return self._max  # pragma: no cover - numeric safety net

    def __repr__(self) -> str:
        if self.count == 0:
            return "<LogHistogram empty>"
        return (
            f"<LogHistogram n={self.count} "
            f"p50={self.quantile(0.5):.6g} p99={self.quantile(0.99):.6g}>"
        )
