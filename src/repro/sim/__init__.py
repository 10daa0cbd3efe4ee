"""Discrete-event simulation kernel (virtual time, events, processes).

A small, dependency-free kernel in the style of SimPy: generator-based
processes yield :class:`~repro.sim.events.Event` objects and are resumed
when those events fire.  All timing in the reproduction is virtual time
kept by :class:`~repro.sim.engine.Environment`, which sidesteps GIL and OS
scheduler noise entirely.

Quick example::

    from repro.sim import Environment

    env = Environment()

    def worker(env, name):
        yield env.timeout(1.0)
        return name

    proc = env.process(worker(env, "a"))
    env.run()
    assert env.now == 1.0 and proc.value == "a"
"""

from .engine import EmptySchedule, Environment, Infinity, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    NORMAL,
    PENDING,
    SimulationError,
    Timeout,
    URGENT,
)
from .process import Process, ProcessGenerator
from .rng import Stream, StreamFactory, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Infinity",
    "Interrupt",
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
