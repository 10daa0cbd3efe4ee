"""Server-side queue disciplines (FIFO, priority)."""

from .disciplines import (
    Discipline,
    FifoDiscipline,
    PriorityDiscipline,
)

__all__ = [
    "Discipline",
    "FifoDiscipline",
    "PriorityDiscipline",
]
