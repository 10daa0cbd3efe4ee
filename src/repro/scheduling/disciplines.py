"""Server-side queue sort key.

:class:`PriorityDiscipline` maps a
:class:`~repro.cluster.messages.RequestMessage` to its sort key, smaller
first.  Neither realm's server takes a discipline: both order their heaps
by the request's priority tuple, then arrival.  The class stays as the
stand-alone key that the layer benchmark times.
"""

from __future__ import annotations

import typing as _t

from ..cluster.messages import RequestMessage


class PriorityDiscipline:
    """Serve by the client-assigned priority tuple (BRB's discipline)."""

    name = "priority"

    def key(self, request: RequestMessage, now: float) -> _t.Tuple[float, ...]:
        return tuple(request.priority)
