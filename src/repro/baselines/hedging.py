"""Hedged requests: the "Tail at Scale" baseline.

The paper cites request duplication (Dean & Barroso, CACM 2013) as the
first family of tail-latency mitigations BRB complements.  This module
implements the classic *hedged request* policy: send each read to the
best replica; if no response arrives within a hedge delay, re-issue it to
a different replica of the same group; the first response wins and the
straggler is ignored (no cancellation -- the duplicate still consumes
server capacity, which is exactly the policy's well-known cost).

Used as an additional baseline in the ablations: hedging fights stragglers
*after* they happen, BRB schedules so they happen less.
"""

from __future__ import annotations

import typing as _t

from ..cluster.client import DispatchStrategy
from ..cluster.messages import RequestMessage, ResponseMessage
from ..placement import Placement
from ..cluster.addresses import server_address
from ..core.cost import CostModel
from ..metrics.histogram import LogHistogram
from ..metrics.timeseries import WindowedRate
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Task
from .selectors import ReplicaSelector


#: Floor (and cold-start value) of the hedge threshold, seconds.
HEDGE_DELAY = 2e-3
#: Hedges may be at most this fraction of the recent sends (Dean & Barroso
#: suggest ~5%).
HEDGE_BUDGET = 0.1


class HedgedStrategy(DispatchStrategy):
    """Per-request replica selection with one hedge after a delay.

    Each read goes to the selector's best replica.  If it is still
    unanswered after the hedge threshold, one duplicate goes to the best
    *other* replica of its group; the first response wins.  Two
    safeguards from the Tail-at-Scale playbook bound the extra load each
    duplicate adds (which delays more primaries, which would spawn more
    duplicates):

    * **adaptive threshold** -- once 100 responses have been observed,
      the threshold is the client's own p95 response latency, never
      below ``HEDGE_DELAY``;
    * **hedge budget** -- duplicates are capped at ``HEDGE_BUDGET`` of
      the sends in the last second.
    """

    def __init__(
        self,
        placement: Placement,
        selector: ReplicaSelector,
        service_model: ServiceTimeModel,
    ) -> None:
        self.placement = placement
        self.selector = selector
        self.service_model = service_model
        # Memoized forecasts, shared logic with the BRB/oblivious paths.
        self.cost_model = CostModel(service_model)
        self.name = f"hedged+{selector.name}"
        #: op_id -> [answered, copies_in_flight]; entries are deleted once
        #: every copy has returned, so memory stays bounded by the number
        #: of in-flight ops rather than the length of the run.
        self._ops: _t.Dict[int, _t.List[_t.Any]] = {}
        #: Observed response latencies; p95 drives the adaptive threshold.
        self._latencies = LogHistogram(min_value=1e-6, max_value=1e3, precision=0.05)
        self._send_rate = WindowedRate(window=1.0)
        self._hedge_rate = WindowedRate(window=1.0)
        self.hedges_sent = 0
        self.wasted_responses = 0
        self.hedges_suppressed = 0

    def _threshold(self) -> float:
        """Current hedge delay: observed p95 once warm, floor otherwise."""
        if self._latencies.count >= 100:
            return max(HEDGE_DELAY, self._latencies.quantile(0.95))
        return HEDGE_DELAY

    def _budget_allows(self) -> bool:
        now = self.client.env.now
        sends = self._send_rate.count(now)
        hedges = self._hedge_rate.count(now)
        return hedges < HEDGE_BUDGET * max(sends, 1.0)

    # -- prepare ---------------------------------------------------------------
    def prepare(self, task: Task) -> _t.List[RequestMessage]:
        now = self.client.env.now
        requests: _t.List[RequestMessage] = []
        for op in task.operations:
            partition = self.placement.partition_of(op.key)
            request = RequestMessage(
                op=op,
                task_id=task.task_id,
                client_id=self.client.client_id,
                partition=partition,
                created_at=now,
                expected_service=self.cost_model.op_cost(op),
            )
            replicas = self.placement.replicas_of(partition)
            request.server_id = self.selector.choose(replicas, request)
            self.selector.on_assign(request)
            requests.append(request)
        return requests

    # -- dispatch ---------------------------------------------------------------
    def dispatch(self, requests: _t.Sequence[RequestMessage]) -> None:
        for request in requests:
            self._ops[request.op.op_id] = [False, 1]
            self._send(request)
            self.client.env.call_later(self._threshold(), self._hedge_due, request)

    def _send(self, request: RequestMessage) -> None:
        request.dispatched_at = self.client.env.now
        self._send_rate.record(self.client.env.now)
        self.client.network.send(
            self.client.address, server_address(request.server_id), request
        )

    def _hedge_due(self, primary: RequestMessage) -> None:
        entry = self._ops.get(primary.op.op_id)
        if entry is None or entry[0]:
            return  # answered in time: no hedge needed
        if not self._budget_allows():
            self.hedges_suppressed += 1
            return
        replicas = [
            s
            for s in self.placement.replicas_of(primary.partition)
            if s != primary.server_id
        ]
        if not replicas:
            return  # replication factor 1: nowhere to hedge
        hedge = RequestMessage(
            op=primary.op,
            task_id=primary.task_id,
            client_id=primary.client_id,
            partition=primary.partition,
            created_at=primary.created_at,
            expected_service=primary.expected_service,
            hedge=True,
        )
        hedge.server_id = self.selector.choose(replicas, hedge)
        self.selector.on_assign(hedge)
        entry[1] += 1
        self.hedges_sent += 1
        self._hedge_rate.record(self.client.env.now)
        self._send(hedge)

    # -- responses ---------------------------------------------------------------
    def accepts_response(self, response: ResponseMessage) -> bool:
        """First response per op wins; stragglers are swallowed."""
        op_id = response.request.op.op_id
        self.selector.on_response(response)
        entry = self._ops.get(op_id)
        if entry is None:
            raise RuntimeError(f"response for unknown op {op_id}")
        entry[1] -= 1
        first = not entry[0]
        entry[0] = True
        if first:
            self._latencies.record(
                max(1e-9, self.client.env.now - response.request.created_at)
            )
        else:
            self.wasted_responses += 1
        if entry[1] <= 0:
            del self._ops[op_id]
        return first

    def on_response(self, response: ResponseMessage) -> None:
        """Selector feedback happens in accepts_response (both copies)."""
