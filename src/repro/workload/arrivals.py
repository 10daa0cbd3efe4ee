"""Task arrival processes (open-loop).

The paper generates "task inter-arrival times using a Poisson process where
the mean rate is set to match 70% of system capacity".  The arrival process
is *open-loop*: tasks keep arriving regardless of backlog, which is what
makes queueing delay (and therefore tail latency) emerge at high load.
"""

from __future__ import annotations

import typing as _t

from ..sim.rng import Stream


class PoissonArrivals:
    """Poisson process: exponential inter-arrival times at ``rate``/sec."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def interarrival_block(self, stream: Stream, n: int) -> _t.List[float]:
        """The next ``n`` inter-arrival gaps, drawn in one call.

        Byte-identical to ``n`` sequential ``stream.expovariate(rate)``
        calls; the task generator consumes arrivals in blocks so the
        per-task dispatch overhead is paid once per block.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        draw = stream.expovariate
        rate = self.rate
        return [draw(rate) for _ in range(n)]

    def __repr__(self) -> str:
        return f"PoissonArrivals(rate={self.rate})"
