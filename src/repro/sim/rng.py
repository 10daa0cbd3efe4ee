"""Deterministic, named random-number streams.

Every stochastic component of the simulator (arrivals, value sizes,
fan-outs, network latency, replica tie-breaking, ...) draws from its own
named stream derived from a single root seed.  This gives two properties the
evaluation needs:

* **Reproducibility** -- a run is fully determined by ``(config, seed)``.
* **Common random numbers across strategies** -- when comparing BRB to C3
  under the same seed, both see *identical* workloads because the workload
  streams are independent of how many draws the strategy-internal streams
  make.  This sharpens the paired comparisons in the Figure 2 reproduction.
"""

from __future__ import annotations

import hashlib
import math
import random
import typing as _t


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 so that child seeds are effectively independent and do not
    collide for distinct names.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Memoized rejection-inversion constants for :meth:`Stream.zipf`, keyed by
#: ``(n, skew)``.  The constants are pure functions of the key, so sharing
#: them across streams and runs cannot perturb any draw.
_ZIPF_CONSTANTS: _t.Dict[_t.Tuple[int, float], _t.Tuple[float, float, float, float]] = {}


class Stream(random.Random):
    """A named random stream (a seeded ``random.Random`` with helpers)."""

    def __new__(cls, seed: int = 0, name: str = "") -> "Stream":
        # Before Python 3.11 ``Random.__new__`` rejects a second argument;
        # forward the seed alone (``__init__`` seeds again, so no draw moves).
        return super().__new__(cls, seed)

    def __init__(self, seed: int, name: str = "") -> None:
        super().__init__(seed)
        self.name = name

    # -- distribution helpers used throughout the workload models ----------
    def exponential(self, mean: float) -> float:
        """Draw from Exp with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self.expovariate(1.0 / mean)

    def zipf(self, n: int, skew: float) -> int:
        """Draw a rank in ``[0, n)`` from a Zipf(skew) distribution.

        Implemented by inverse-CDF over precomputed weights would be costly
        per call; instead uses the rejection-inversion method of Hormann &
        Derflinger, which is O(1) per draw for skew > 0.

        The method's per-``(n, skew)`` constants are memoized in
        ``_ZIPF_CONSTANTS`` (the original closure-based formulation
        recomputed them -- and defined two closures -- on *every* draw).
        The arithmetic is unchanged expression for expression, so draws
        are bit-identical to the unmemoized version.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if skew <= 0:
            raise ValueError("skew must be positive")
        if n == 1:
            return 0
        if skew == 1.0:
            skew = 1.0000001  # avoid the harmonic special case below

        # Rejection-inversion sampling (Hormann & Derflinger 1996), with
        # h(x) = exp((1-skew) log x) / (1-skew) expanded inline.
        consts = _ZIPF_CONSTANTS.get((n, skew))
        if consts is None:
            one_minus = 1.0 - skew
            h_x1 = math.exp(one_minus * math.log(1.5)) / one_minus - 1.0
            h_n = math.exp(one_minus * math.log(n + 0.5)) / one_minus
            threshold = (2.0 - math.exp(skew * math.log(2.0))) ** (-1.0)
            consts = (one_minus, h_x1, h_n, threshold)
            _ZIPF_CONSTANTS[(n, skew)] = consts
        one_minus, h_x1, h_n, threshold = consts
        draw = self.random
        exp = math.exp
        log = math.log
        while True:
            u = h_n + draw() * (h_x1 - h_n)
            x = exp(log(one_minus * u) / one_minus)
            k = int(x + 0.5)
            k = max(1, min(n, k))
            if k - x <= threshold or u >= exp(
                one_minus * log(k + 0.5)
            ) / one_minus - exp(-skew * log(k)):
                return k - 1

    def lognormal_mean(self, mean: float, sigma: float) -> float:
        """Draw log-normal with the given *arithmetic* mean and log-sigma."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        mu = math.log(mean) - 0.5 * sigma * sigma
        return self.lognormvariate(mu, sigma)


class StreamFactory:
    """Factory of named, independent :class:`Stream` objects.

    Streams are memoized: asking for the same name twice returns the same
    stream object (so sequential draws continue, they do not restart).
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: _t.Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream registered under ``name`` (creating it once)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = Stream(derive_seed(self.root_seed, name), name=name)
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:
        return f"StreamFactory(root_seed={self.root_seed}, streams={sorted(self._streams)})"
