"""Network model: one-way delays between any two endpoints.

The paper sets "our one-way network latency to 50 us"; the default model is
that constant.  A jittered model is provided for sensitivity ablations.
Delivery preserves per-(src, dst) FIFO ordering even under jitter, matching
TCP semantics between a client/server pair -- the credits protocol relies
on grants not overtaking each other.
"""

from __future__ import annotations

import typing as _t

from ..sim.engine import Environment
from ..sim.rng import Stream

#: The paper's one-way latency.
PAPER_ONE_WAY_LATENCY = 50e-6


class LatencyModel:
    """Interface: ``sample(stream) -> float`` one-way delay in seconds."""

    def sample(self, stream: Stream) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def mean(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed one-way delay (the paper's 50 us by default)."""

    def __init__(self, delay: float = PAPER_ONE_WAY_LATENCY) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = float(delay)

    def sample(self, stream: Stream) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class JitteredLatency(LatencyModel):
    """Log-normal delay with a hard floor (switching + propagation)."""

    def __init__(
        self,
        mean: float = PAPER_ONE_WAY_LATENCY,
        sigma: float = 0.3,
        floor: float = 10e-6,
    ) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        if floor < 0 or floor > mean:
            raise ValueError("need 0 <= floor <= mean")
        self._mean = float(mean)
        self.sigma = float(sigma)
        self.floor = float(floor)

    def sample(self, stream: Stream) -> float:
        return max(self.floor, stream.lognormal_mean(self._mean, self.sigma))

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"JitteredLatency(mean={self._mean}, sigma={self.sigma})"


Handler = _t.Callable[[_t.Any], None]


class Network:
    """Delivers messages to handler callables after a sampled delay.

    Endpoints register under a hashable address; :meth:`send` schedules
    ``handler(message)`` one sampled delay in the future.  FIFO ordering per
    (src, dst) pair is enforced by never letting a later message get a
    smaller absolute delivery time than an earlier one on the same pair.
    """

    def __init__(
        self,
        env: Environment,
        latency: _t.Optional[LatencyModel] = None,
        stream: _t.Optional[Stream] = None,
    ) -> None:
        self.env = env
        self.latency = latency if latency is not None else ConstantLatency()
        self.stream = stream if stream is not None else Stream(0, "network")
        self._handlers: _t.Dict[_t.Hashable, Handler] = {}
        self._last_delivery: _t.Dict[_t.Tuple[_t.Hashable, _t.Hashable], float] = {}
        #: Messages accepted by :meth:`send` so far.
        self.messages_sent = 0

    def register(self, address: _t.Hashable, handler: Handler) -> None:
        """Bind ``handler`` to ``address`` (one handler per address)."""
        if address in self._handlers:
            raise ValueError(f"address {address!r} already registered")
        self._handlers[address] = handler

    def unregister_all(self) -> None:
        """Drop every handler (run teardown): each is a method of an
        endpoint that holds this network."""
        self._handlers.clear()

    def send(
        self, src: _t.Hashable, dst: _t.Hashable, message: _t.Any
    ) -> float:
        """Send ``message`` from ``src`` to ``dst``; returns delivery time."""
        handler = self._handlers.get(dst)
        if handler is None:
            raise KeyError(f"no handler registered for {dst!r}")
        delay = self.latency.sample(self.stream)
        deliver_at = self.env.now + delay
        pair = (src, dst)
        floor = self._last_delivery.get(pair)
        if floor is not None and deliver_at < floor:
            deliver_at = floor  # FIFO per pair
        self._last_delivery[pair] = deliver_at
        self.messages_sent += 1
        # Delivery is fire-and-forget: one bare-callback calendar entry.
        # A latency model buggy enough to put deliver_at in the past is
        # rejected by call_at.
        self.env.call_at(deliver_at, handler, message)
        return deliver_at
