"""The clock/transport seam: one strategy stack, two execution substrates.

Everything strategy-side (C3 selection and pacing, hedging timers, BRB
credit gates, the credits controller) interacts with its substrate through
two narrow interfaces:

* :class:`Clock` -- ``now`` (seconds), ``call_later(delay, fn, arg)`` and
  ``call_every(interval, fn, arg)``: every delayed or periodic activity is
  a plain callback, and the returned handle's ``cancel()`` withdraws it.
* :class:`Transport` -- ``register(address, handler)`` and
  ``send(src, dst, message)``: addressed, asynchronous message delivery.

Each also has one teardown verb for the run's owner (``cancel_all()``,
``unregister_all()``): a pending callback and a registered handler are
methods of objects that hold the clock and the transport, so a finished
run lets go of both instead of waiting for the cycle collector.

The simulation realizes them with :class:`~repro.sim.engine.Environment`
(virtual clock, event calendar) and :class:`~repro.cluster.network.Network`
(modelled one-way latency); both satisfy the protocols structurally, so
simulation behavior is untouched by this seam.  The live serving subsystem
(:mod:`repro.serve`, :mod:`repro.loadgen`) realizes them with
:class:`WallClock` -- wall-clock time driven by asyncio -- and a TCP-backed
transport, which is what lets the *same* strategy objects dispatch real
requests against real concurrency.

Model time vs. wall time
------------------------
All strategy code thinks in *model seconds* (the paper's units: 50 us
network hops, ~285 us service times).  A :class:`WallClock` maps between
the two with a ``scale`` factor: one model second takes ``scale`` wall
seconds.  Scaling up (e.g. 25x) keeps sleep durations well above the
event-loop timer resolution so live runs are not dominated by timer
quantization; latencies read off a :class:`WallClock` are already in model
seconds and therefore directly comparable with simulated ones.
"""

from __future__ import annotations

import asyncio
import time
import typing as _t


@_t.runtime_checkable
class Clock(_t.Protocol):
    """What strategy code may ask of time.

    Satisfied by the simulation's :class:`~repro.sim.engine.Environment`
    (virtual time) and by :class:`WallClock` (scaled wall time).
    """

    @property
    def now(self) -> float:
        """Current time in model seconds."""
        ...

    def call_later(
        self, delay: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> _t.Any:
        """Call ``fn(arg)`` once, ``delay`` model seconds from now."""
        ...

    def call_every(
        self, interval: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> _t.Any:
        """Call ``fn(arg)`` every ``interval`` model seconds, first one
        interval from now; the next call is armed after ``fn`` returns."""
        ...

    def cancel_all(self) -> None:
        """Withdraw every pending call (teardown; the run's owner calls it,
        strategy code does not)."""
        ...


@_t.runtime_checkable
class Transport(_t.Protocol):
    """Addressed, asynchronous message delivery between endpoints.

    Satisfied by the simulated :class:`~repro.cluster.network.Network`
    (sampled one-way delays) and by the live subsystem's TCP/loopback
    transports.  Handlers are plain callables invoked with the message.
    """

    def register(
        self, address: _t.Hashable, handler: _t.Callable[[_t.Any], None]
    ) -> None: ...

    def send(
        self, src: _t.Hashable, dst: _t.Hashable, message: _t.Any
    ) -> _t.Any: ...

    def unregister_all(self) -> None:
        """Drop every handler (teardown, by the run's owner)."""
        ...


class _WallTimer:
    """Handle of one :meth:`WallClock.call_later` / ``call_every``."""

    __slots__ = ("_clock", "_fn", "_arg", "_interval", "_handle")

    def __init__(
        self,
        clock: "WallClock",
        delay: float,
        fn: _t.Callable[[_t.Any], None],
        arg: _t.Any,
        interval: _t.Optional[float],
    ) -> None:
        self._clock = clock
        self._fn = fn
        self._arg = arg
        #: Re-arm period (model seconds); ``None`` for a one-shot.
        self._interval = interval
        self._handle: _t.Optional[asyncio.TimerHandle] = None
        self._arm(delay)

    def _arm(self, delay: float) -> None:
        self._handle = asyncio.get_running_loop().call_later(
            delay * self._clock.scale, self._fire
        )
        self._clock._armed.add(self)

    def _fire(self) -> None:
        clock = self._clock
        clock._armed.discard(self)
        self._handle = None
        try:
            self._fn(self._arg)
        except Exception as error:
            self._interval = None  # a failed periodic callback stops, as in the sim
            if not clock._note_error(error):
                raise  # nobody listens: leave it to the loop's exception handler
            return
        if self._interval is not None:
            self._arm(self._interval)

    def cancel(self) -> None:
        """Withdraw the call (and, for ``call_every``, every later one)."""
        self._interval = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
            self._clock._armed.discard(self)


class WallClock:
    """Wall-clock realization of :class:`Clock` on top of asyncio.

    ``now`` is model seconds since construction: ``(monotonic - t0) /
    scale``.  ``call_later`` / ``call_every`` are ``loop.call_later`` with
    the delay stretched by ``scale``, so the strategy-side timers (credit
    reports, the controller epoch, hedge timers, C3 pacing, fault
    windows) are the very callbacks the simulation's calendar fires.
    """

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        self._t0 = time.monotonic()
        #: Handles armed and not yet fired or cancelled.  Pruned on firing:
        #: strategies arm one short-lived timer per paced or hedged
        #: request, so an append-only list would grow with the request
        #: count.
        self._armed: _t.Set[_WallTimer] = set()
        #: First exception raised by any callback (the sim raises them
        #: synchronously out of ``env.run``; here the driver must be told).
        self.first_error: _t.Optional[BaseException] = None
        self._error_callbacks: _t.List[_t.Callable[[BaseException], None]] = []

    # -- Clock protocol -----------------------------------------------------
    def read(self) -> float:
        """``now`` as a plain method: a per-op path binds it once."""
        return (time.monotonic() - self._t0) / self.scale

    now = property(read)

    def rebase(self) -> None:
        """Reset model time to zero (e.g. when the measured run begins).

        Call before any timestamped traffic: samples recorded earlier would
        sit in the clock's future after a rebase.
        """
        self._t0 = time.monotonic()

    def call_later(
        self, delay: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> _WallTimer:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return _WallTimer(self, delay, fn, arg, None)

    def call_every(
        self, interval: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> _WallTimer:
        if interval <= 0:
            raise ValueError(f"non-positive interval {interval}")
        return _WallTimer(self, interval, fn, arg, interval)

    def on_error(self, callback: _t.Callable[[BaseException], None]) -> None:
        """Invoke ``callback`` with the first callback exception (once)."""
        self._error_callbacks.append(callback)
        if self.first_error is not None:
            callback(self.first_error)

    def _note_error(self, error: BaseException) -> bool:
        """Funnel ``error`` to the subscribers; False if there are none."""
        if self.first_error is None:
            self.first_error = error
            for callback in self._error_callbacks:
                callback(error)
        return bool(self._error_callbacks)

    def cancel_all(self) -> None:
        """Cancel every armed handle of this clock and forget the error
        subscribers, which have nothing left to hear of (run teardown)."""
        for timer in list(self._armed):
            timer.cancel()
        self._error_callbacks.clear()
