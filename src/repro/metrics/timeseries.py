"""Windowed rates and EWMA estimators over a stream of timestamps.

Used by the servers (arrival rate for the congestion check, service-time
EWMA), C3 (send/receive rates) and hedging (duplicate budget).  All
timestamps are model seconds from the run's clock.
"""

from __future__ import annotations

import math
import typing as _t
from collections import deque


#: Smallest rate denominator (model seconds): a query made at the instant
#: of the first event reports weight / EPSILON_ELAPSED rather than
#: dividing by zero.
EPSILON_ELAPSED = 1e-6


class WindowedRate:
    """Counts events and reports the rate over the trailing window.

    The C3 rate-control loop and the credits controller's demand estimator
    both need "events per second over the last T" with cheap updates.
    Events older than ``window`` are evicted lazily on query.

    Before one full window has elapsed since the first recorded event the
    denominator is the *elapsed* time (clamped to ``EPSILON_ELAPSED``),
    not the full window -- dividing by the window would understate every
    warm-up rate by ``window / elapsed``.  Queries must not lag recording:
    ``rate``/``count`` raise on a ``now`` earlier than the latest recorded
    event, because silently counting future events would overstate the
    answer.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._events: _t.Deque[_t.Tuple[float, float]] = deque()  # (time, weight)
        self._weight_sum = 0.0
        self._first_time: _t.Optional[float] = None
        self._last_time = -math.inf

    def record(self, time: float, weight: float = 1.0) -> None:
        if time < self._last_time:
            raise ValueError("time went backwards")
        if self._first_time is None:
            self._first_time = time
        self._last_time = time
        self._events.append((time, weight))
        self._weight_sum += weight
        # Amortized eviction: a hot recorder queried rarely (a saturated
        # live worker's arrival rate between congestion checks) must not
        # accumulate the whole run in memory.  Evicting against the
        # latest recorded time never changes a later query's answer.
        if len(self._events) >= 4096:
            self._evict(time)

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        events = self._events
        while events and events[0][0] < cutoff:
            self._weight_sum -= events.popleft()[1]

    def _check_not_stale(self, now: float) -> None:
        if now < self._last_time:
            raise ValueError(
                f"stale query: now={now} is earlier than the latest "
                f"recorded event at {self._last_time}"
            )

    def _elapsed(self, now: float) -> float:
        """The rate denominator: elapsed since the first event, clamped
        to ``[EPSILON_ELAPSED, window]``."""
        if self._first_time is None:
            return self.window
        return min(self.window, max(now - self._first_time, EPSILON_ELAPSED))

    def rate(self, now: float) -> float:
        """Weighted events per unit time over ``[now - window, now]``."""
        self._check_not_stale(now)
        self._evict(now)
        return self._weight_sum / self._elapsed(now)

    def count(self, now: float) -> float:
        """Total weight inside the current window."""
        self._check_not_stale(now)
        self._evict(now)
        return self._weight_sum


class EwmaEstimator:
    """Exponentially weighted moving average with irregular samples.

    The decay is applied per unit of elapsed virtual time (so the estimator
    has a well-defined time constant regardless of sampling cadence).  C3
    uses EWMAs of observed service times and queue sizes from piggybacked
    server feedback.
    """

    def __init__(self, time_constant: float, initial: float = 0.0) -> None:
        if time_constant <= 0:
            raise ValueError("time_constant must be positive")
        self.time_constant = time_constant
        #: The current estimate (read-only for callers; a plain attribute
        #: because C3's ranking reads it several times per request).
        self.value = float(initial)
        self._last_time: _t.Optional[float] = None

    def update(self, time: float, sample: float) -> float:
        """Fold in ``sample`` observed at ``time``; returns the new value."""
        if self._last_time is None:
            self.value = float(sample)
        else:
            dt = time - self._last_time
            if dt < 0:
                raise ValueError("time went backwards")
            alpha = 1.0 - math.exp(-dt / self.time_constant)
            self.value += alpha * (sample - self.value)
        self._last_time = time
        return self.value
