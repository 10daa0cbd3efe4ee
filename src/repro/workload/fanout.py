"""Task fan-out distributions (number of data-store requests per task).

The paper's SoundCloud trace has an *average* fan-out of 8.6 requests per
task (e.g. "all tracks in a playlist").  The trace itself is proprietary,
so we model fan-out with parametric distributions whose mean we pin to the
published value; the SoundCloud-like generator uses a heavy-tailed mixture
(most tasks are small, a few fan out to hundreds of keys -- long playlists).
"""

from __future__ import annotations

import math
import typing as _t

from ..sim.rng import Stream


class FanoutDistribution:
    """Interface: ``sample(stream) -> int >= 1`` plus the analytic mean."""

    def sample(self, stream: Stream) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def mean(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class GeometricFanout(FanoutDistribution):
    """Shifted geometric fan-out: ``1 + Geom(p)`` with mean ``target_mean``.

    Memoryless "keep adding one more item" model; the lightest-tailed of
    the realistic choices.
    """

    def __init__(self, target_mean: float) -> None:
        if target_mean <= 1.0:
            raise ValueError("mean fan-out must exceed 1")
        self.target_mean = float(target_mean)
        #: success probability such that E[1 + G] = target_mean
        self.p = 1.0 / (self.target_mean - 0.0)

    def sample(self, stream: Stream) -> int:
        # Inverse-CDF geometric on {1, 2, ...} with mean target_mean.
        u = stream.random()
        q = 1.0 - 1.0 / self.target_mean
        if q <= 0.0:
            return 1
        return max(1, 1 + int(math.floor(math.log(u) / math.log(q))))

    def mean(self) -> float:
        return self.target_mean

    def __repr__(self) -> str:
        return f"GeometricFanout(mean={self.target_mean})"


class LogNormalFanout(FanoutDistribution):
    """Log-normal fan-out rounded up, clamped to ``[1, cap]``.

    ``sigma`` controls the tail: sigma ~1.0 gives the "mostly small tasks,
    occasional huge playlist" shape seen in fan-out studies.  The arithmetic
    mean of the *continuous* distribution is pinned to ``target_mean``;
    rounding and clamping perturb it slightly (< 3% for the defaults).
    """

    def __init__(self, target_mean: float, sigma: float = 1.0, cap: int = 1024) -> None:
        if target_mean <= 1.0:
            raise ValueError("mean fan-out must exceed 1")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if cap < 2:
            raise ValueError("cap must be >= 2")
        self.target_mean = float(target_mean)
        self.sigma = float(sigma)
        self.cap = int(cap)
        self.mu = math.log(self.target_mean) - 0.5 * sigma * sigma

    def sample(self, stream: Stream) -> int:
        x = stream.lognormvariate(self.mu, self.sigma)
        return max(1, min(self.cap, int(math.ceil(x))))

    def mean(self) -> float:
        return self.target_mean

    def __repr__(self) -> str:
        return (
            f"LogNormalFanout(mean={self.target_mean}, sigma={self.sigma}, "
            f"cap={self.cap})"
        )


class MixtureFanout(FanoutDistribution):
    """Weighted mixture of fan-out distributions.

    Lets the SoundCloud generator express "80% short profile fetches,
    20% playlist expansions".
    """

    def __init__(
        self, components: _t.Sequence[_t.Tuple[float, FanoutDistribution]]
    ) -> None:
        if not components:
            raise ValueError("mixture needs at least one component")
        total = sum(w for w, _ in components)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self.components = [(w / total, d) for w, d in components]

    def sample(self, stream: Stream) -> int:
        u = stream.random()
        acc = 0.0
        for weight, dist in self.components:
            acc += weight
            if u <= acc:
                return dist.sample(stream)
        return self.components[-1][1].sample(stream)  # numeric slack

    def mean(self) -> float:
        return sum(w * d.mean() for w, d in self.components)

    def __repr__(self) -> str:
        parts = ", ".join(f"{w:.3f}*{d!r}" for w, d in self.components)
        return f"MixtureFanout({parts})"
