"""The ideal *model* realization: one global priority queue.

"In an ideal case, referred to as model, servers utilize a work-pulling
mechanism to fetch requests from a single global priority-based queue
shared by all clients.  However, such a model is unrealizable since it
assumes perfect knowledge of global state."

:class:`GlobalQueue` realizes the ideal: clients submit prioritized
requests into it (after the usual client->backend network delay -- the
model is ideal with respect to *knowledge*, not physics) and it hands each
idle :class:`~repro.cluster.server.PullServer` core the globally
smallest-priority request that core's server can serve.

The queue is kept as one heap per partition.  "Smallest request a server
replicates" is then the smallest of a few heap tops, and a server's
eligible backlog is a sum of heap lengths -- neither walks the global
backlog, which under a skewed workload is deep exactly where it is not
eligible.  Matching happens in one end-of-instant flush (after every arrival and
completion of its timestamp, see
:meth:`~repro.sim.engine.Environment.at_instant_end`) that walks the idle
cores in the order they went idle.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush
from itertools import count

from ..cluster.messages import RequestMessage
from ..cluster.network import LatencyModel
from ..sim.engine import Environment
from ..sim.rng import Stream

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.server import PullServer

#: One partition's backlog: (priority, global arrival seq, request).
_Heap = _t.List[_t.Tuple[_t.Tuple[float, ...], int, RequestMessage]]


class GlobalQueue:
    """Shared priority queue, the idle-core list and the submission delay."""

    def __init__(
        self,
        env: Environment,
        latency: LatencyModel,
        stream: Stream,
    ) -> None:
        self.env = env
        self.latency = latency
        self.stream = stream
        self._heaps: _t.Dict[int, _Heap] = {}
        self._seq = count()
        self._size = 0
        #: One entry per idle core, in the order the cores went idle.
        self._idle: _t.List["PullServer"] = []
        self._flush_pending = False
        self.submitted = 0

    def submit(self, request: RequestMessage) -> None:
        """Enqueue after one network delay (client -> backend tier)."""
        request.dispatched_at = self.env.now
        self.submitted += 1
        delay = self.latency.sample(self.stream)
        # Arrival is fire-and-forget; call_later rejects a negative delay.
        self.env.call_later(delay, self._arrive, request)

    def _arrive(self, request: RequestMessage) -> None:
        request.enqueued_at = self.env.now
        heappush(
            self._heaps.setdefault(request.partition, []),
            (request.priority, next(self._seq), request),
        )
        self._size += 1
        self.arm_flush()

    def __len__(self) -> int:
        return self._size

    # -- the servers' side -------------------------------------------------------
    def attach(self, server: "PullServer") -> _t.List[_Heap]:
        """Add ``server``'s cores, all idle; returns the heaps it pulls from."""
        self._idle.extend([server] * server.cores)
        return [self._heaps.setdefault(p, []) for p in sorted(server.partitions)]

    def detach(self) -> None:
        """Forget every attached server (run teardown): each holds this queue."""
        self._idle.clear()

    def core_idle(self, server: "PullServer") -> None:
        """One of ``server``'s cores finished its request."""
        self._idle.append(server)
        if self._size:
            self.arm_flush()

    def arm_flush(self) -> None:
        """Schedule one :meth:`_flush` for the end of the current instant."""
        if not self._flush_pending:
            self._flush_pending = True
            self.env.at_instant_end(self._flush)

    def _flush(self) -> None:
        """Hand each idle core the smallest request its server replicates.

        Cores are matched in went-idle order; one that finds nothing (or
        whose server is crashed) keeps its place in line.
        """
        self._flush_pending = False
        waiting: _t.List["PullServer"] = []
        for server in self._idle:
            best: _t.Optional[_Heap] = None
            if self._size and not server.paused:
                for heap in server.backlogs:
                    if heap and (best is None or heap[0] < best[0]):
                        best = heap
            if best is None:
                waiting.append(server)
            else:
                self._size -= 1
                server.pull(heappop(best)[2])
        self._idle = waiting
