"""Discrete-event simulation kernel (virtual time, calendar, timers).

A small, dependency-free kernel.  All timing in the reproduction is virtual
time kept by :class:`~repro.sim.engine.Environment`, which sidesteps GIL
and OS scheduler noise entirely.  Model code schedules plain callbacks::

    from repro.sim import Environment

    env = Environment()
    seen = []
    env.call_later(1.0, seen.append, "a")
    tick = env.call_every(0.5, seen.append, "tick")
    env.run(until=1.2)
    assert seen == ["tick", "a", "tick"]  # 0.5; 1.0 twice, in arming order
    tick.cancel()

Generator-based processes in the style of SimPy (``env.process(gen)``,
yielding :class:`~repro.sim.events.Event` objects) remain for test rigs
and micro-benchmarks; nothing else under ``src/`` uses them.
"""

from .engine import EmptySchedule, Environment, Infinity, StopSimulation
from .events import (
    Event,
    NORMAL,
    PENDING,
    SimulationError,
    Timeout,
    URGENT,
)
from .process import Process, ProcessGenerator
from .rng import Stream, StreamFactory, derive_seed

__all__ = [
    "EmptySchedule",
    "Environment",
    "Event",
    "Infinity",
    "NORMAL",
    "PENDING",
    "Process",
    "ProcessGenerator",
    "SimulationError",
    "StopSimulation",
    "Stream",
    "StreamFactory",
    "Timeout",
    "URGENT",
    "derive_seed",
]
