"""Server-side queue sort key (the priority tuple)."""

from .disciplines import PriorityDiscipline

__all__ = ["PriorityDiscipline"]
