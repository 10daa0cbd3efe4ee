"""Task-oblivious dispatch strategies (the baselines' client side).

The oblivious strategy selects a replica *per request* (no notion of
sub-tasks or bottlenecks), leaves every request at the default priority
``(0.0,)``, and sends each request at once.  Servers serve the smallest
priority tuple first and ties in arrival order, so these requests are
served FIFO.  C3, which also paces its sends, is its own strategy
(:class:`~repro.baselines.c3.C3Strategy`).
"""

from __future__ import annotations

import typing as _t

from ..cluster.client import DispatchStrategy
from ..cluster.messages import RequestMessage, ResponseMessage
from ..placement import Placement
from ..cluster.addresses import server_address
from ..core.cost import CostModel
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Task
from .selectors import ReplicaSelector


class ObliviousStrategy(DispatchStrategy):
    """Per-request replica selection, immediate dispatch."""

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
        client = self.client
        now = client.env.now
        for request in requests:
            request.dispatched_at = now
            client.network.send(
                client.address, self._server_addresses[request.server_id], request
            )

    # -- feedback ---------------------------------------------------------------
    def on_response(self, response: ResponseMessage) -> None:
        self.selector.on_response(response)
