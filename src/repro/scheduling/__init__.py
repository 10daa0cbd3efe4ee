"""Server-side queue disciplines (FIFO, priority)."""

from .disciplines import (
    Discipline,
    FifoDiscipline,
    PriorityDiscipline,
    make_discipline,
)

__all__ = [
    "Discipline",
    "FifoDiscipline",
    "PriorityDiscipline",
    "make_discipline",
]
