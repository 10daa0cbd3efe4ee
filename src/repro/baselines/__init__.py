"""Baselines: C3, replica selectors (random, RR, LOR) + oblivious dispatch."""

from .c3 import C3Record, C3Strategy
from .hedging import HedgedStrategy
from .selectors import (
    LeastOutstandingBytesSelector,
    LeastOutstandingSelector,
    RandomSelector,
    ReplicaSelector,
    RoundRobinSelector,
    make_selector,
)
from .strategies import ObliviousStrategy

__all__ = [
    "C3Record",
    "C3Strategy",
    "HedgedStrategy",
    "LeastOutstandingBytesSelector",
    "LeastOutstandingSelector",
    "ObliviousStrategy",
    "RandomSelector",
    "ReplicaSelector",
    "RoundRobinSelector",
    "make_selector",
]
