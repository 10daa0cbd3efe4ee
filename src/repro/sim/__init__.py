"""Discrete-event simulation kernel (virtual time, calendar, timers).

A small, dependency-free kernel.  All timing in the reproduction is virtual
time kept by :class:`~repro.sim.engine.Environment`, which sidesteps GIL
and OS scheduler noise entirely.  The calendar holds one kind of entry, a
:class:`~repro.sim.engine.Timer` calling ``fn(arg)``; model code schedules
plain callbacks::

    from repro.sim import Environment

    env = Environment()
    seen = []
    env.call_later(1.0, seen.append, "a")
    tick = env.call_every(0.5, seen.append, "tick")
    env.run(until=1.2)
    assert seen == ["tick", "a", "tick"]  # 0.5; 1.0 twice, in arming order
    tick.cancel()

A run ends when it reaches a stop timer -- ``env.stop()`` arms one at
``now``, ``run(until=t)`` one at ``t`` -- or when the calendar empties.
Test rigs and micro-benchmarks may also drive a generator that yields
delays (``env.process(gen)``, ``yield env.timeout(d)``).
"""

from .engine import EmptySchedule, Environment, Infinity
from .rng import Stream, StreamFactory, derive_seed

__all__ = [
    "EmptySchedule",
    "Environment",
    "Infinity",
    "Stream",
    "StreamFactory",
    "derive_seed",
]
