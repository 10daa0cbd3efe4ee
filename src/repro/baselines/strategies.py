"""Task-oblivious dispatch strategies (the baselines' client side).

The oblivious strategy selects a replica *per request* (no notion of
sub-tasks or bottlenecks), attaches no meaningful priority, and sends
requests as soon as the pacing policy allows.  Servers run FIFO (or any
configured task-oblivious discipline).
"""

from __future__ import annotations

import typing as _t
from collections import deque

from ..cluster.client import DispatchStrategy
from ..cluster.messages import RequestMessage, ResponseMessage
from ..placement import Placement
from ..cluster.addresses import server_address
from ..core.cost import CostModel
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Task
from .c3 import C3Selector
from .selectors import ReplicaSelector


class ObliviousStrategy(DispatchStrategy):
    """Per-request replica selection, immediate (or paced) dispatch."""

    def __init__(
        self,
        placement: Placement,
        selector: ReplicaSelector,
        service_model: ServiceTimeModel,
    ) -> None:
        self.placement = placement
        self.selector = selector
        self.service_model = service_model
        # Memoized forecasts (same cache the BRB strategies use): one key
        # maps to one fixed size, so per-request recomputation is waste.
        self.cost_model = CostModel(service_model)
        self.name = f"oblivious+{selector.name}"
        #: The selector's send-slot gate when it paces dispatches (C3's
        #: rate control), else ``None``: every request leaves at once.
        self._try_acquire = (
            selector.try_acquire if isinstance(selector, C3Selector) else None
        )
        #: Requests waiting for a send slot, per server (C3 pacing only).
        self._paced_backlog: _t.Dict[int, _t.Deque[RequestMessage]] = {}
        self._pacer_active: _t.Set[int] = set()
        self._server_addresses = [
            server_address(s) for s in range(placement.n_servers)
        ]

    # -- prepare ---------------------------------------------------------------
    def prepare(self, task: Task) -> _t.List[RequestMessage]:
        placement = self.placement
        selector = self.selector
        op_cost = self.cost_model.op_cost
        task_id = task.task_id
        client_id = self.client.client_id
        now = self.client.env.now
        requests: _t.List[RequestMessage] = []
        for op in task.operations:
            partition = placement.partition_of(op.key)
            request = RequestMessage(
                op, task_id, client_id, partition, now, op_cost(op)
            )
            replicas = placement.replicas_of(partition)
            request.server_id = selector.choose(replicas, request)
            selector.on_assign(request)
            requests.append(request)
        return requests

    # -- dispatch ---------------------------------------------------------------
    def dispatch(self, requests: _t.Sequence[RequestMessage]) -> None:
        try_acquire = self._try_acquire
        for request in requests:
            if try_acquire is None or try_acquire(request.server_id):
                self._send(request)
            else:
                server_id = request.server_id
                self._paced_backlog.setdefault(server_id, deque()).append(request)
                self._ensure_pacer(server_id)

    def _send(self, request: RequestMessage) -> None:
        request.dispatched_at = self.client.env.now
        self.selector.on_dispatch(request)
        self.client.network.send(
            self.client.address, self._server_addresses[request.server_id], request
        )

    def _ensure_pacer(self, server_id: int) -> None:
        if server_id not in self._pacer_active:
            self._pacer_active.add(server_id)
            self._pace(server_id)

    def _pace(self, server_id: int) -> None:
        """Drain the paced backlog as rate-limit tokens mature.

        The wait is floored at 1 us: the token bucket can report
        sub-representable residual waits, and ``now + epsilon == now`` in
        doubles would freeze virtual time.
        """
        selector = _t.cast(C3Selector, self.selector)
        backlog = self._paced_backlog[server_id]
        while backlog:
            if not selector.try_acquire(server_id):
                self.client.env.call_later(
                    max(1e-6, selector.time_until_slot(server_id)),
                    self._pace,
                    server_id,
                )
                return
            self._send(backlog.popleft())
        self._pacer_active.discard(server_id)

    # -- feedback ---------------------------------------------------------------
    def on_response(self, response: ResponseMessage) -> None:
        self.selector.on_response(response)
