"""Generator-based processes for the simulation kernel.

A *process* wraps a Python generator that yields events.  When a yielded
event is processed, the generator is resumed with the event's value (or the
event's exception is thrown into it).  A process is itself an event that
triggers when the generator returns, which lets processes wait for each
other and lets ``env.run(until=process)`` stop on it.

Nothing under ``src/`` outside this package runs as a process any more --
every model activity is a ``call_later``/``call_every`` callback -- so this
is the minimum the test rigs' ``env.process(driver())`` scaffolding and the
kernel micro-benchmarks need: no interrupts, no condition events.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush

from .events import Event, NORMAL, PENDING, URGENT

if _t.TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

ProcessGenerator = _t.Generator[Event, object, object]


class Initialize(Event):
    """Internal event that kicks a freshly created process."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.process = process
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env.schedule(self, priority=URGENT)


class Process(Event):
    """Drives a generator, suspending it on every yielded event."""

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: _t.Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of ``event``.

        Hot path: this runs once per yielded event of every process.  The
        generator and the calendar push are bound to locals, and the
        common exit (subscribe to a pending event) is checked first.
        """
        env = self.env
        generator = self._generator

        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event failed: throw the exception into the process.
                    event.defuse()
                    exc = _t.cast(BaseException, event._value)
                    next_event = generator.throw(type(exc), exc, exc.__traceback__)
            except StopIteration as exc:
                # Generator finished: the process event succeeds (the push
                # is env.schedule inlined; see Event.succeed).
                self._ok = True
                self._value = exc.value
                heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
                break
            except BaseException as exc:
                # Uncaught exception: the process event fails.
                self._ok = False
                self._value = exc
                heappush(env._queue, (env._now, NORMAL, next(env._eid), self))
                break

            if not isinstance(next_event, Event):
                proc_error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = _FailedNow(env, proc_error)
                continue
            if next_event.env is not env:
                proc_error = RuntimeError(
                    f"process {self.name!r} yielded an event from a foreign environment"
                )
                event = _FailedNow(env, proc_error)
                continue

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                callbacks.append(self._resume)
                break

            # Event already processed: loop immediately with its value.
            event = next_event

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "terminated"
        return f"<Process {self.name!r} {state}>"


class _FailedNow(Event):
    """An already-failed, already-processed pseudo-event.

    Used internally to feed an error back into a generator without going
    through the calendar.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", exc: BaseException) -> None:
        super().__init__(env)
        self._ok = False
        self._value = exc
        self._defused = True
        self.callbacks = None  # behave as already processed
