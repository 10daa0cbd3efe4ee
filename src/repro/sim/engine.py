"""The discrete-event simulation environment (virtual clock + calendar).

:class:`Environment` owns the event calendar -- a flat binary heap of
``(time, sequence, Timer)`` tuples -- and the virtual clock.  All latency
numbers produced by this repository are differences of this virtual
clock, which makes them deterministic and immune to GIL scheduling noise
(the concern flagged by the reproduction notes).

The calendar holds one kind of entry, the :class:`Timer`: a bare
``fn(arg)`` callback.  The network model, the simulated servers, the
controllers and the feeder all schedule work as "call this later"
(:meth:`Environment.call_later` / ``call_at`` / ``call_every``), at one
small allocation per entry.

Timers support *lazy cancellation*: :meth:`Timer.cancel` flips a flag and
the calendar discards the entry when it reaches the top of the heap --
nothing is ever removed from the middle of the heap (removal would be
O(n) and would perturb the sequence numbering the determinism contract
rests on).  A cancelled timer does **not** count toward
``events_processed``.

Determinism contract: entries fire in exactly ``(time, sequence)``
lexicographic order, where the sequence number is drawn from one counter
at scheduling time -- a stable sort on time (the property tests in
``tests/sim/`` pin this).

Stopping is a timer too: :meth:`Environment.stop` arms one at ``(now,
next sequence)`` and ``run(until=t)`` arms one at ``t``.  When the run
loop reaches it, ``run()`` returns without counting it, so entries armed
earlier at that instant have fired and later ones have not.

End-of-instant work (a server's admit, the model queue's flush) is not a
calendar entry: :meth:`Environment.at_instant_end` appends a callback to
a FIFO that runs, one callback at a time, whenever no calendar entry of
the current instant is left.  These callbacks do not count toward
``events_processed``.

The ``run()`` loop is deliberately inlined (no per-event ``step()`` call,
hot attributes bound to locals): the kernel is the multiplier under every
benchmark in this repository -- see ``docs/performance.md`` for the
measured ledger.  ``step()`` remains the single-event API and must be
kept semantically in sync with the inlined loop.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from heapq import heappop, heappush
from itertools import count

Infinity: float = float("inf")


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when the calendar is empty."""


class _Stop(Exception):
    """Raised by a stop timer's callback; ends :meth:`Environment.run`."""


def _stop(_arg: _t.Any) -> None:
    raise _Stop


class Timer:
    """A scheduled bare callback: the calendar's one kind of entry.

    Created through :meth:`Environment.call_later` / ``call_at``; fires as
    ``fn(arg)``.  :meth:`cancel` is lazy -- the heap entry stays where it
    is and is skipped (without counting as a processed event) when popped.
    """

    __slots__ = ("fn", "arg", "cancelled")

    def __init__(self, fn: _t.Callable[[_t.Any], None], arg: _t.Any) -> None:
        self.fn = fn
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the timer dead; the calendar discards it when popped.  It
        lets go of its callback at once: what that would have called
        usually holds the environment, and a :class:`PeriodicTimer` holds
        the very timer that calls it."""
        self.cancelled = True
        self.fn = self.arg = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Timer {getattr(self.fn, '__qualname__', self.fn)!r} {state}>"


class PeriodicTimer:
    """A self-rearming :class:`Timer`: ``fn(arg)`` every ``interval``.

    Created through :meth:`Environment.call_every`.  Cancellation stops
    the rearm; the in-flight calendar entry is lazily discarded like any
    cancelled timer.
    """

    __slots__ = ("env", "interval", "fn", "arg", "cancelled", "_timer")

    def __init__(
        self,
        env: "Environment",
        interval: float,
        fn: _t.Callable[[_t.Any], None],
        arg: _t.Any,
    ) -> None:
        self.env = env
        self.interval = interval
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self._timer = env.call_later(interval, self._fire, arg)

    def _fire(self, arg: _t.Any) -> None:
        self.fn(arg)
        if not self.cancelled:
            self._timer = self.env.call_later(self.interval, self._fire, self.arg)

    def cancel(self) -> None:
        self.cancelled = True
        self._timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return (
            f"<PeriodicTimer {getattr(self.fn, '__qualname__', self.fn)!r} "
            f"every {self.interval} {state}>"
        )


class Environment:
    """Execution environment for a single simulation run.

    The virtual clock starts at 0 (seconds by convention throughout this
    repository).
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Flat calendar: (time, sequence, Timer).
        self._queue: _t.List[_t.Tuple[float, int, Timer]] = []
        self._eid = count()
        #: End-of-instant callbacks, in arming order (:meth:`at_instant_end`).
        self._deferred: _t.Deque[_t.Callable[[], None]] = deque()
        #: Total number of entries fired so far (for micro-benchmarks).
        #: Cancelled timers are skipped, not fired, and do not count; nor
        #: do stop timers or end-of-instant callbacks.
        self.events_processed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- scheduling ----------------------------------------------------------
    def call_later(
        self, delay: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> Timer:
        """Schedule ``fn(arg)`` after ``delay``.

        Returns the :class:`Timer`, whose :meth:`~Timer.cancel` lazily
        withdraws the call.
        """
        if delay < 0:
            # Scheduling into the past would silently drag the virtual
            # clock backwards on pop.
            raise ValueError(f"negative delay {delay}")
        timer = Timer(fn, arg)
        heappush(self._queue, (self._now + delay, next(self._eid), timer))
        return timer

    def call_every(
        self, interval: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> PeriodicTimer:
        """Schedule ``fn(arg)`` every ``interval``, starting one from now.

        The next call is armed after ``fn`` returns, so entries ``fn``
        schedules sort ahead of the re-arm.  The timer re-arms
        unconditionally until the returned handle is cancelled: an armed
        one keeps the calendar non-empty, so end such a run with
        ``run(until=...)`` or :meth:`stop` -- a bare ``run()`` would never
        return.
        """
        if interval <= 0:
            raise ValueError(f"non-positive interval {interval}")
        return PeriodicTimer(self, interval, fn, arg)

    def call_at(
        self, at: float, fn: _t.Callable[[_t.Any], None], arg: _t.Any = None
    ) -> Timer:
        """Schedule ``fn(arg)`` at absolute virtual time ``at`` (>= now)."""
        if at < self._now:
            raise ValueError(f"call_at time {at} lies in the past (now={self._now})")
        timer = Timer(fn, arg)
        heappush(self._queue, (at, next(self._eid), timer))
        return timer

    def at_instant_end(self, fn: _t.Callable[[], None]) -> None:
        """Call ``fn()`` once no calendar entry of the current instant is
        left, after the end-of-instant callbacks armed before it.

        A callback that schedules an entry at ``now`` sees that entry fire
        before the next end-of-instant callback runs.  Nothing withdraws
        an armed callback but :meth:`cancel_all`.
        """
        self._deferred.append(fn)

    def stop(self) -> None:
        """End :meth:`run` once the entries already armed for ``now`` have
        fired: a stop timer at ``(now, next sequence)``.  It is not counted
        in ``events_processed``; the end-of-instant work of ``now`` stays
        armed for the next run.  A stop timer ends whichever run reaches it.
        """
        self.call_later(0.0, _stop)

    def cancel_all(self) -> None:
        """Cancel every pending timer and empty the calendar and the
        end-of-instant callbacks (run teardown)."""
        for _, _, timer in self._queue:
            timer.cancel()
        self._queue.clear()
        self._deferred.clear()

    def peek(self) -> float:
        """Time of the next calendar entry (``inf`` if the calendar is
        empty), or ``now`` while end-of-instant callbacks are armed.

        Lazily cancelled timers still occupy their slot until popped, so
        ``peek`` may report the time of an entry that will be discarded.
        """
        if self._deferred:
            return self._now
        return self._queue[0][0] if self._queue else Infinity

    # -- generator processes (test rigs and micro-benchmarks only) ---------
    def timeout(self, delay: float) -> float:
        """What a :meth:`process` generator yields to sleep ``delay``."""
        return delay

    def process(self, generator: _t.Iterator[float]) -> None:
        """Run ``generator`` now up to its first ``yield``, then resume it
        ``delay`` after every delay it yields, until it returns."""

        def resume(_arg: _t.Any = None) -> None:
            delay = next(generator, None)
            if delay is not None:
                self.call_later(delay, resume)

        resume()

    # -- dispatch ------------------------------------------------------------
    def step(self) -> None:
        """Fire the next calendar entry, advancing the clock -- or, when no
        entry of the current instant is left, the next end-of-instant
        callback.  A stop timer advances the clock and fires nothing.

        Single-step API; :meth:`run` inlines the same logic -- keep the
        two in sync when touching the dispatch semantics.
        """
        queue = self._queue
        deferred = self._deferred
        while True:
            if deferred and (not queue or queue[0][0] != self._now):
                deferred.popleft()()
                return
            try:
                now, _, timer = heappop(queue)
            except IndexError:
                raise EmptySchedule("no scheduled events left") from None
            if timer.cancelled:
                # Lazily discarded: not counted, and the clock does not
                # advance to a dead entry's deadline.
                continue
            self._now = now
            try:
                timer.fn(timer.arg)
            except _Stop:
                return
            self.events_processed += 1
            return

    def run(self, until: _t.Optional[float] = None) -> None:
        """Run the simulation until a stop timer fires or, with ``until``
        None, the calendar is exhausted.

        A number ``until`` arms a stop timer at that virtual time (which
        must lie in the future): the clock reads ``until`` afterwards.
        """
        if until is not None:
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until={at} must lie in the future (now={self._now})")
            self.call_at(at, _stop)

        # Inlined dispatch loop (the semantic twin of step()): hot
        # globals/attributes are bound once.  The processed counter is
        # bumped on the instance per entry -- callbacks may legitimately
        # read env.events_processed mid-run, so it cannot lag in a local.
        # A stop timer's callback raises before its entry is counted.
        queue = self._queue
        deferred = self._deferred
        pop = heappop
        try:
            while True:
                if deferred and (not queue or queue[0][0] != self._now):
                    deferred.popleft()()
                    continue
                try:
                    now, _, timer = pop(queue)
                except IndexError:
                    return
                if timer.cancelled:
                    # Lazily discarded: not counted, and the clock does
                    # not advance to a dead entry's deadline.
                    continue
                self._now = now
                timer.fn(timer.arg)
                self.events_processed += 1
        except _Stop:
            return

    def __repr__(self) -> str:
        return (
            f"<Environment now={self._now!r} pending={len(self._queue)}"
            f" deferred={len(self._deferred)}>"
        )
