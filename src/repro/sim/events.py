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
#: share the same timestamp).  Used by the kernel to start processes.
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


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
