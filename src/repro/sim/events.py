"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-calendar design (as popularized by
SimPy): an :class:`Event` is a one-shot occurrence that carries a value and
a list of callbacks.  Events are *triggered* (given a value and scheduled on
the environment's calendar) and later *processed* (their callbacks run at
the scheduled virtual time).

Everything in the cluster substrate -- message deliveries, service
completions, controller epochs -- is expressed in terms of these events.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Environment


class _PendingType:
    """Sentinel for "this event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Unique sentinel marking an untriggered event's value slot.
PENDING = _PendingType()

#: Scheduling priority for urgent events (processed before normal ones that
#: share the same timestamp).  Used by the kernel for interrupts.
URGENT = 0

#: Default scheduling priority.
NORMAL = 1

#: Scheduling priority for deferred work that must run after every NORMAL
#: event of the same timestamp (e.g. a server's end-of-instant admit).
LOW = 2


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The ``cause`` attribute carries the value passed to
    :meth:`~repro.sim.process.Process.interrupt`.
    """

    @property
    def cause(self) -> object:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence in virtual time.

    An event goes through three states:

    1. *pending*  -- created, not yet triggered; ``triggered`` is False.
    2. *triggered* -- it has a value and sits on the event calendar.
    3. *processed* -- the environment popped it and ran its callbacks.

    Callbacks are plain callables receiving the event.  New callbacks may
    only be added before the event is processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks to run when the event is processed; ``None`` afterwards.
        self.callbacks: _t.Optional[_t.List[_t.Callable[["Event"], None]]] = []
        self._value: object = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the calendar."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded, False if it failed.

        Only meaningful once :attr:`triggered` is True.
        """
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or the exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure was handled (prevents error escalation)."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    # -- triggering --------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event to allow ``return env.event().succeed(x)`` chains.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): one frame less on every trigger.
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` as its value.

        A failed event re-raises inside any process that waits on it.  If no
        one waits on it and it is never defused, the environment raises the
        exception at processing time so errors never pass silently.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state/value of another event.

        Useful as a callback: ``evt_a.callbacks.append(evt_b.trigger)``.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        heappush(env._queue, (env._now, NORMAL, next(env._eid), self))

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay in virtual time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Flattened constructor: one Timeout is allocated per yielded wait,
        # which makes this the single most-called initializer in a run.
        # Writing the slots directly and pushing the calendar entry inline
        # skips the Event.__init__ and env.schedule() frames (and the
        # redundant PENDING placeholder the base init would assign).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class ConditionValue:
    """Ordered mapping from the events of a condition to their values.

    Mirrors the interface of a read-only dict keyed by event instances, in
    trigger order.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: _t.List[Event] = []

    def __getitem__(self, key: Event) -> object:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self) -> _t.Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def keys(self) -> _t.List[Event]:
        return list(self.events)

    def values(self) -> _t.List[object]:
        return [e._value for e in self.events]

    def items(self) -> _t.List[_t.Tuple[Event, object]]:
        return [(e, e._value) for e in self.events]

    def todict(self) -> _t.Dict[Event, object]:
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over a list of sub-events.

    ``evaluate`` decides when the condition is met; :meth:`all_events` and
    :meth:`any_events` provide the usual AND / OR semantics.  The condition's
    value is a :class:`ConditionValue` of all sub-events triggered so far.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: _t.Callable[[_t.List[Event], int], bool],
        events: _t.Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        # Immediately met (e.g. empty AllOf)?
        if self._evaluate(self._events, 0):
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None or event.triggered:
                if event.triggered:
                    value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Propagate the failure; mark handled on the sub-event.
            event.defuse()
            self.fail(_t.cast(BaseException, event._value))
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    @staticmethod
    def all_events(events: _t.List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: _t.List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition met once *all* sub-events triggered."""

    def __init__(self, env: "Environment", events: _t.Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition met once *any* sub-event triggered."""

    def __init__(self, env: "Environment", events: _t.Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
