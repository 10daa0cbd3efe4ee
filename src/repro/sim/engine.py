"""The discrete-event simulation environment (virtual clock + calendar).

:class:`Environment` owns the event calendar -- a flat binary heap of
``(time, priority, sequence, entry)`` tuples -- and the virtual clock.  All
latency numbers produced by this repository are differences of this virtual
clock, which makes them deterministic and immune to GIL scheduling noise
(the concern flagged by the reproduction notes).

The calendar holds two kinds of entries, distinguished by exact type:

* :class:`~repro.sim.events.Event` -- the full one-shot occurrence with a
  value and a callback list (what ``run(until=event)`` stops on and what
  the test rigs' processes yield);
* :class:`Timer` -- a bare ``fn(arg)`` callback with **no** event wrapper.
  This is the hot-path representation used by the network model, the
  simulated servers and anything else that only ever needs "call this later":
  scheduling one costs a single small allocation instead of an Event, a
  callbacks list and a closure.

Timers support *lazy cancellation*: :meth:`Timer.cancel` flips a flag and
the calendar discards the entry when it reaches the top of the heap --
nothing is ever removed from the middle of the heap (removal would be
O(n) and would perturb the sequence numbering the determinism contract
rests on).  A cancelled timer does **not** count toward
``events_processed``.

Determinism contract: entries fire in exactly ``(time, priority,
sequence)`` lexicographic order, where the sequence number is drawn from
one shared counter at scheduling time.  Timers and events share the
counter, so converting a call site from a Timeout-plus-callback to a
Timer preserves byte-identical execution order (the engine differential
tests in ``tests/sim/`` pin this).

End-of-instant work (a server's admit, the model queue's flush) is not a
calendar entry: :meth:`Environment.at_instant_end` appends a callback to
a FIFO that runs, one callback at a time, whenever no calendar entry of
the current instant is left -- exactly where an entry scheduled at
``now`` with a priority below every other one would fire, without the
entry.  These callbacks do not count toward ``events_processed``.

The ``run()`` loop is deliberately inlined (no per-event ``step()`` call,
hot attributes bound to locals): the kernel is the multiplier under every
benchmark in this repository, and the inlining is worth ~15% events/sec
on its own -- see ``docs/performance.md`` for the measured ledger.
``step()`` remains the single-event API and must be kept semantically in
sync with the inlined loop.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from heapq import heappop, heappush
from itertools import count

from .events import Event, NORMAL, PENDING, SimulationError, Timeout
from .process import Process, ProcessGenerator

Infinity: float = float("inf")


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when the calendar is empty."""


class StopSimulation(Exception):
    """Signals :meth:`Environment.run` to return (event-triggered stop)."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event.ok:
            raise cls(event.value)
        # Propagate failures of the until-event.
        raise _t.cast(BaseException, event.value)


class Timer:
    """A scheduled bare callback: the calendar's no-wrapper fast path.

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

    __slots__ = ("env", "interval", "fn", "arg", "priority", "cancelled", "_timer")

    def __init__(
        self,
        env: "Environment",
        interval: float,
        fn: _t.Callable[[_t.Any], None],
        arg: _t.Any,
        priority: int,
    ) -> None:
        self.env = env
        self.interval = interval
        self.fn = fn
        self.arg = arg
        self.priority = priority
        self.cancelled = False
        self._timer = env.call_later(interval, self._fire, arg, priority)

    def _fire(self, arg: _t.Any) -> None:
        self.fn(arg)
        if not self.cancelled:
            self._timer = self.env.call_later(
                self.interval, self._fire, self.arg, self.priority
            )

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
        #: Flat calendar: (time, priority, sequence, Event | Timer).
        self._queue: _t.List[_t.Tuple[float, int, int, _t.Any]] = []
        self._eid = count()
        #: End-of-instant callbacks, in arming order (:meth:`at_instant_end`).
        self._deferred: _t.Deque[_t.Callable[[], None]] = deque()
        #: Total number of entries fired so far (for micro-benchmarks).
        #: Cancelled timers are skipped, not fired, and do not count; nor
        #: do end-of-instant callbacks, which are not entries.
        self.events_processed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` units of virtual time later."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: _t.Optional[str] = None
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Put a triggered event on the calendar ``delay`` from now."""
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def call_later(
        self,
        delay: float,
        fn: _t.Callable[[_t.Any], None],
        arg: _t.Any = None,
        priority: int = NORMAL,
    ) -> Timer:
        """Schedule ``fn(arg)`` after ``delay``; no event wrapper.

        Returns the :class:`Timer`, whose :meth:`~Timer.cancel` lazily
        withdraws the call.  This is the fast path for fire-and-forget
        work (message delivery, deferred flushes): it allocates one small
        object where ``timeout(...)`` + a callback costs an Event, a
        callbacks list and usually a closure.
        """
        if delay < 0:
            # Same contract as Timeout: scheduling into the past would
            # silently drag the virtual clock backwards on pop.
            raise ValueError(f"negative delay {delay}")
        timer = Timer(fn, arg)
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), timer)
        )
        return timer

    def call_every(
        self,
        interval: float,
        fn: _t.Callable[[_t.Any], None],
        arg: _t.Any = None,
        priority: int = NORMAL,
    ) -> "PeriodicTimer":
        """Schedule ``fn(arg)`` every ``interval``, starting one from now.

        The next call is armed after ``fn`` returns, so entries ``fn``
        schedules sort ahead of the re-arm.  The timer re-arms
        unconditionally until the returned handle is cancelled: an armed
        one keeps the calendar non-empty, so end such a run with
        ``run(until=...)`` -- a bare ``run()`` would never return.
        """
        if interval <= 0:
            raise ValueError(f"non-positive interval {interval}")
        return PeriodicTimer(self, interval, fn, arg, priority)

    def call_at(
        self,
        at: float,
        fn: _t.Callable[[_t.Any], None],
        arg: _t.Any = None,
        priority: int = NORMAL,
    ) -> Timer:
        """Schedule ``fn(arg)`` at absolute virtual time ``at`` (>= now)."""
        if at < self._now:
            raise ValueError(f"call_at time {at} lies in the past (now={self._now})")
        timer = Timer(fn, arg)
        heappush(self._queue, (at, priority, next(self._eid), timer))
        return timer

    def at_instant_end(self, fn: _t.Callable[[], None]) -> None:
        """Call ``fn()`` once no calendar entry of the current instant is
        left, after the end-of-instant callbacks armed before it.

        A callback that schedules an entry at ``now`` sees that entry fire
        before the next end-of-instant callback runs.  Nothing withdraws
        an armed callback but :meth:`cancel_all`.
        """
        self._deferred.append(fn)

    def cancel_all(self) -> None:
        """Cancel every pending timer and empty the calendar and the
        end-of-instant callbacks (run teardown)."""
        for _, _, _, entry in self._queue:
            if entry.__class__ is Timer:
                entry.cancel()
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

    def step(self) -> None:
        """Process the next calendar entry, advancing the clock -- or, when
        no entry of the current instant is left, the next end-of-instant
        callback.

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
                now, _, _, entry = heappop(queue)
            except IndexError:
                raise EmptySchedule("no scheduled events left") from None
            if entry.__class__ is Timer:
                if entry.cancelled:
                    # Lazily discarded: not counted, and the clock does
                    # not advance to a dead entry's deadline.
                    continue
                self._now = now
                entry.fn(entry.arg)
                self.events_processed += 1
                return
            break

        self._now = now
        callbacks = entry.callbacks
        entry.callbacks = None  # mark processed
        for callback in callbacks:
            callback(entry)
        self.events_processed += 1

        if not entry._ok and not entry._defused:
            # Nobody handled this failure: crash the simulation loudly.
            raise _t.cast(BaseException, entry._value)

    def run(self, until: _t.Union[None, float, Event] = None) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until the calendar is exhausted;
        * a number -- run until virtual time reaches that value;
        * an :class:`Event` -- run until the event is processed, returning
          its value.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until={at} must lie in the future (now={self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, delay=at - self._now, priority=NORMAL)

        if isinstance(until, Event):
            if until.callbacks is None:
                return until.value  # already processed
            until.callbacks.append(StopSimulation.callback)

        # Inlined dispatch loop (the semantic twin of step()): hot
        # globals/attributes are bound once.  The processed counter is
        # bumped on the instance per entry -- callbacks may legitimately
        # read env.events_processed mid-run, so it cannot lag in a local.
        queue = self._queue
        deferred = self._deferred
        pop = heappop
        timer_class = Timer
        try:
            while True:
                if deferred and (not queue or queue[0][0] != self._now):
                    deferred.popleft()()
                    continue
                try:
                    now, _, _, entry = pop(queue)
                except IndexError:
                    raise EmptySchedule from None
                if entry.__class__ is timer_class:
                    if entry.cancelled:
                        # Lazily discarded: not counted, and the clock
                        # does not advance to a dead entry's deadline.
                        continue
                    self._now = now
                    entry.fn(entry.arg)
                    self.events_processed += 1
                    continue

                self._now = now
                callbacks = entry.callbacks
                entry.callbacks = None  # mark processed
                for callback in callbacks:
                    callback(entry)
                self.events_processed += 1

                if not entry._ok and not entry._defused:
                    # Unhandled failure: crash the simulation loudly.
                    raise _t.cast(BaseException, entry._value)
        except StopSimulation as exc:
            return exc.args[0] if exc.args else None
        except EmptySchedule:
            if isinstance(until, Event) and until._value is not PENDING:
                return until.value
            if isinstance(until, Event):
                raise SimulationError(
                    "calendar ran dry before the until-event triggered"
                ) from None
            return None

    def __repr__(self) -> str:
        return (
            f"<Environment now={self._now!r} pending={len(self._queue)}"
            f" deferred={len(self._deferred)}>"
        )
