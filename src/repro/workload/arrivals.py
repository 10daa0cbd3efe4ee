"""Task arrival processes (open-loop).

The paper generates "task inter-arrival times using a Poisson process where
the mean rate is set to match 70% of system capacity".  The arrival process
is *open-loop*: tasks keep arriving regardless of backlog, which is what
makes queueing delay (and therefore tail latency) emerge at high load.
"""

from __future__ import annotations

import typing as _t

from ..sim.rng import Stream


class ArrivalProcess:
    """Interface: ``next_interarrival(stream) -> float`` seconds."""

    rate: float

    def next_interarrival(self, stream: Stream) -> float:  # pragma: no cover
        raise NotImplementedError

    def interarrival_block(self, stream: Stream, n: int) -> _t.List[float]:
        """Pre-draw the next ``n`` inter-arrival gaps in one call.

        Byte-identical to ``n`` sequential :meth:`next_interarrival`
        calls by construction (that is exactly what the default does);
        subclasses may tighten the loop, but must preserve the stream's
        draw sequence.  The task generator consumes arrivals through this
        block API so the per-task dispatch overhead is paid once per
        block instead of once per task.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        draw = self.next_interarrival
        return [draw(stream) for _ in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Poisson process: exponential inter-arrival times at ``rate``/sec."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def next_interarrival(self, stream: Stream) -> float:
        return stream.expovariate(self.rate)

    def interarrival_block(self, stream: Stream, n: int) -> _t.List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        # Bound method batching: same expovariate calls, same floats.
        draw = stream.expovariate
        rate = self.rate
        return [draw(rate) for _ in range(n)]

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self.rate})"


class DeterministicArrivals(ArrivalProcess):
    """Fixed-spacing arrivals (useful for deterministic tests)."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.period = 1.0 / self.rate

    def next_interarrival(self, stream: Stream) -> float:
        return self.period

    def interarrival_block(self, stream: Stream, n: int) -> _t.List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        return [self.period] * n

    def __repr__(self) -> str:
        return f"DeterministicArrivals(rate={self.rate})"
