"""Windowed rates and EWMA estimators over a stream of timestamps.

Used by the servers of both realms (arrival rate for the congestion
check, service-time EWMA), C3 (send/receive rates), hedging (duplicate
budget) and the metrics bus (task arrival rate).  All timestamps are
model seconds from the run's clock.
"""

from __future__ import annotations

import math
import typing as _t
from collections import deque


#: Smallest rate denominator (model seconds): a query made at the instant
#: of the first event reports count / EPSILON_ELAPSED rather than
#: dividing by zero.
EPSILON_ELAPSED = 1e-6


class WindowedRate:
    """Counts events and reports the rate over the trailing window.

    "Events per second over the last T" with one deque append per event:
    the window is a deque of event times and its count is the deque's
    length, so it is exact.  Events older than ``window`` are evicted
    lazily on query.

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
        self._times: _t.Deque[float] = deque()
        self._first_time: _t.Optional[float] = None
        self._last_time = -math.inf

    def record(self, time: float) -> None:
        if time < self._last_time:
            raise ValueError("time went backwards")
        if self._first_time is None:
            self._first_time = time
        self._last_time = time
        self._times.append(time)
        # Amortized eviction: a hot recorder queried rarely (a saturated
        # live worker's arrival rate between congestion checks) must not
        # accumulate the whole run in memory.  Evicting against the
        # latest recorded time never changes a later query's answer.
        if len(self._times) >= 4096:
            self._evict(time)

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        times = self._times
        while times and times[0] < cutoff:
            times.popleft()

    def rate(self, now: float) -> float:
        """Events per unit time over ``[now - window, now]``; before a full
        window has passed since the first event, over the elapsed time."""
        return self.rate_of(self.count(now), now)

    def rate_of(self, count: int, now: float) -> float:
        """:meth:`rate` from the ``count(now)`` a caller already holds."""
        if self._first_time is None:
            return 0.0
        elapsed = max(now - self._first_time, EPSILON_ELAPSED)
        return count / min(self.window, elapsed)

    def count(self, now: float) -> int:
        """Events inside the current window."""
        if now < self._last_time:
            raise ValueError(
                f"stale query: now={now} is earlier than the latest "
                f"recorded event at {self._last_time}"
            )
        self._evict(now)
        return len(self._times)


class EwmaEstimator:
    """Exponentially decaying moving average (EWMA) over irregular samples.

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
        """Fold in ``sample`` observed at ``time``; returns the new value.

        :meth:`weight` then :meth:`fold`, written out in one frame: every
        server of both realms calls this once per completed request."""
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

    def weight(self, time: float) -> _t.Optional[float]:
        """The weight a sample observed at ``time`` gets (``None`` for the
        first sample, which replaces the initial value).  Estimators with
        one time constant, always updated at the same instants, can share
        one weight: one ``exp`` instead of one each."""
        if self._last_time is None:
            return None
        dt = time - self._last_time
        if dt < 0:
            raise ValueError("time went backwards")
        return 1.0 - math.exp(-dt / self.time_constant)

    def fold(self, time: float, sample: float, alpha: _t.Optional[float]) -> float:
        """Fold in ``sample`` at ``time`` with the :meth:`weight` ``alpha``."""
        if alpha is None:
            self.value = float(sample)
        else:
            self.value += alpha * (sample - self.value)
        self._last_time = time
        return self.value
