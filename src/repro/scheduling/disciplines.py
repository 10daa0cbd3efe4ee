"""Server-side queue disciplines.

A discipline maps a :class:`~repro.cluster.messages.RequestMessage` to a
sort key; the server's priority heap serves smaller keys first and breaks
ties FIFO (arrival order).  The discipline is the only thing that differs
between a task-oblivious server (FIFO) and a BRB server (PRIORITY fed by
client-assigned EqualMax/UnifIncr priorities).
"""

from __future__ import annotations

import typing as _t
from itertools import count

from ..cluster.messages import RequestMessage


class Discipline:
    """Interface: ``key(request, now) -> orderable`` (smaller first)."""

    name: str = "abstract"

    def key(self, request: RequestMessage, now: float) -> _t.Tuple[float, ...]:
        raise NotImplementedError  # pragma: no cover - abstract


class FifoDiscipline(Discipline):
    """First-come first-served: key is the enqueue sequence number."""

    name = "fifo"

    def __init__(self) -> None:
        self._seq = count()

    def key(self, request: RequestMessage, now: float) -> _t.Tuple[float, ...]:
        return (float(next(self._seq)),)


class PriorityDiscipline(Discipline):
    """Serve by the client-assigned priority tuple (BRB's discipline)."""

    name = "priority"

    def key(self, request: RequestMessage, now: float) -> _t.Tuple[float, ...]:
        return tuple(request.priority)
