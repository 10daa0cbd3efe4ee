"""Value-size distributions.

The paper generates request value sizes "using a Pareto distribution based
on a study conducted on Facebook's Memcached deployment" (Atikoglu et al.,
SIGMETRICS 2012).  That study fits a *Generalized Pareto* distribution to
the value sizes of the ETC pool; we implement that sampler with the
published parameters.

The sampler draws from a :class:`repro.sim.rng.Stream` passed by the
caller, so the workload is reproducible and shared across strategies.
"""

from __future__ import annotations

import functools
import math
import typing as _t

from ..sim.rng import Stream

#: Generalized-Pareto parameters for the ETC pool value sizes reported by
#: Atikoglu et al. (SIGMETRICS'12), Table 5: location theta, scale sigma,
#: shape k.  Sizes are in bytes.
ATIKOGLU_ETC_LOCATION = 0.0
ATIKOGLU_ETC_SCALE = 214.476
ATIKOGLU_ETC_SHAPE = 0.348238


class GeneralizedParetoValueSize:
    """Generalized Pareto value sizes, truncated to ``[min_size, max_size]``.

    The CDF is ``F(x) = 1 - (1 + k (x - theta) / sigma)^(-1/k)`` for shape
    ``k != 0``; inverse-CDF sampling gives
    ``x = theta + sigma ((1 - u)^(-k) - 1) / k``.

    Truncation matters: with the Atikoglu shape (k ~= 0.35) raw draws have a
    heavy tail; memcached deployments cap values (1 MB by default), and the
    cap keeps the simulated service times physical.  The truncation is by
    resampling, which preserves the distribution's shape below the cap.
    """

    def __init__(
        self,
        location: float = ATIKOGLU_ETC_LOCATION,
        scale: float = ATIKOGLU_ETC_SCALE,
        shape: float = ATIKOGLU_ETC_SHAPE,
        min_size: int = 1,
        max_size: int = 1_048_576,
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        if min_size < 1 or max_size <= min_size:
            raise ValueError("need 1 <= min_size < max_size")
        self.location = float(location)
        self.scale = float(scale)
        self.shape = float(shape)
        self.min_size = int(min_size)
        self.max_size = int(max_size)
        # Truncation bounds are pure functions of the parameters; caching
        # them here removes two CDF evaluations from every sample() call
        # (the registry draws one sample per distinct key).  Same
        # expressions, same floats.
        self._f_lo = self._cdf(float(self.min_size))
        self._f_hi = self._cdf(float(self.max_size))

    def _raw_sample(self, u: float) -> float:
        if abs(self.shape) < 1e-12:
            return self.location - self.scale * math.log1p(-u)
        return self.location + self.scale * ((1.0 - u) ** (-self.shape) - 1.0) / self.shape

    def _cdf(self, x: float) -> float:
        if x <= self.location:
            return 0.0
        z = (x - self.location) / self.scale
        if abs(self.shape) < 1e-12:
            return 1.0 - math.exp(-z)
        return 1.0 - (1.0 + self.shape * z) ** (-1.0 / self.shape)

    def sample(self, stream: Stream) -> int:
        # Inverse-CDF restricted to [F(min), F(max)]: exact truncated draw
        # with a single uniform (no rejection loop).
        u = self._f_lo + stream.random() * (self._f_hi - self._f_lo)
        x = self._raw_sample(u)
        return max(self.min_size, min(self.max_size, int(round(x))))

    def _params(self) -> _t.Tuple[float, float, float, int, int]:
        return (self.location, self.scale, self.shape, self.min_size, self.max_size)

    # A value: equal parameters draw equal sizes, so they may share one
    # process-wide size table (``repro.workload.tasks``).
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedParetoValueSize):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash(self._params())

    def mean(self) -> float:
        """Mean of the truncated distribution (numeric; computed once per
        process for each parameter set, see :func:`_truncated_mean`)."""
        return _truncated_mean(
            self.location, self.scale, self.shape, self.min_size, self.max_size
        )

    def __repr__(self) -> str:
        return (
            f"GeneralizedParetoValueSize(scale={self.scale}, shape={self.shape}, "
            f"max_size={self.max_size})"
        )


@functools.lru_cache(maxsize=4)
def _truncated_mean(
    location: float, scale: float, shape: float, min_size: int, max_size: int
) -> float:
    """A :class:`GeneralizedParetoValueSize`'s mean: a pure function of its
    parameters, so every ``config.workload()`` of a process shares one
    integral instead of redoing it on a fresh distribution."""
    dist = GeneralizedParetoValueSize(location, scale, shape, min_size, max_size)
    # Integrate x f(x) over [min,max] via the tail formula
    # E[X] = min + integral of (1 - F_trunc(x)) dx, with Simpson's rule
    # on a log-spaced grid (the integrand spans several decades).
    f_hi = dist._f_hi
    span = f_hi - dist._f_lo

    def survival(x: float) -> float:
        return (f_hi - dist._cdf(x)) / span

    n = 4096
    log_lo = math.log(min_size)
    log_hi = math.log(max_size)
    total = 0.0
    prev_x = float(min_size)
    prev_s = survival(prev_x)
    for i in range(1, n + 1):
        x = math.exp(log_lo + (log_hi - log_lo) * i / n)
        s = survival(x)
        total += 0.5 * (prev_s + s) * (x - prev_x)
        prev_x, prev_s = x, s
    return min_size + total


def atikoglu_etc(max_size: int = 1_048_576) -> GeneralizedParetoValueSize:
    """The paper's value-size model: Atikoglu et al. ETC-pool fit."""
    return GeneralizedParetoValueSize(max_size=max_size)
