"""BRB dispatch strategies: task-aware preparation + two realizations.

Shared preparation (both realizations):

1. split the task into sub-tasks, one per replica group
   (:func:`repro.core.cost.split_task`);
2. forecast costs and find the bottleneck sub-task;
3. assign every request a priority via EqualMax or UnifIncr;
4. (credits realization) pick each request's replica within its group by
   least-outstanding-*bytes* selection.

Steps 2-4 are one loop over the sub-tasks: every request is built once,
already carrying its priority, forecast, ``created_at`` and replica.

Realizations:

* :class:`BRBCreditsStrategy` -- requests flow through the client's
  :class:`~repro.core.credits.CreditGate` to per-server priority queues.
* :class:`BRBModelStrategy` -- requests flow into the shared
  :class:`~repro.core.model_queue.GlobalQueue`; any replica may pull them.
"""

from __future__ import annotations

import typing as _t

from ..baselines.selectors import LeastOutstandingBytesSelector
from ..cluster.client import DispatchStrategy
from ..cluster.messages import CreditGrant, RequestMessage, ResponseMessage
from ..placement import Placement
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Task
from .cost import CostModel, bottleneck, split_task
from .credits import CreditGate
from .model_queue import GlobalQueue
from .priorities import PriorityAssigner


class _BRBBase(DispatchStrategy):
    """Shared task-aware preparation."""

    #: Load-aware replica selector; ``None`` leaves ``server_id`` unset
    #: (the model realization: any replica of the group may pull).
    selector: _t.Optional[LeastOutstandingBytesSelector] = None

    def __init__(
        self,
        placement: Placement,
        assigner: PriorityAssigner,
        service_model: ServiceTimeModel,
    ) -> None:
        self.placement = placement
        self.assigner = assigner
        self.cost_model = CostModel(service_model)

    def prepare(self, task: Task) -> _t.List[RequestMessage]:
        subtasks = split_task(task, self.placement.partition_of, self.cost_model)
        priorities = self.assigner.assign(task, subtasks)
        bott = bottleneck(subtasks).cost
        task_id = task.task_id
        client_id = self.client.client_id
        now = self.client.env.now
        selector = self.selector
        requests: _t.List[RequestMessage] = []
        for st in subtasks:
            partition = st.partition
            replicas = () if selector is None else self.placement.replicas_of(partition)
            for op, op_cost in zip(st.operations, st.op_costs):
                priority = priorities[op.op_id]
                request = RequestMessage(
                    op, task_id, client_id, partition, now, op_cost, priority, bott
                )
                if selector is not None:
                    # Load-aware (least-outstanding-bytes) selection *per
                    # request*: the sub-task groups requests for priority
                    # purposes, but a large sub-task still spreads across
                    # its replica group rather than serializing on one
                    # server ("intelligent replica selection ... in a
                    # load-aware fashion").  Accounted at once, so the next
                    # op of the burst sees this one's load and spreads
                    # instead of herding.
                    request.server_id = selector.choose(replicas, request)
                    selector.on_assign(request)
                requests.append(request)
        return requests


class BRBCreditsStrategy(_BRBBase):
    """BRB over the realizable credits machinery."""

    def __init__(
        self,
        placement: Placement,
        assigner: PriorityAssigner,
        service_model: ServiceTimeModel,
        gate: CreditGate,
    ) -> None:
        super().__init__(placement, assigner, service_model)
        self.gate = gate
        self.selector = LeastOutstandingBytesSelector()
        self.name = f"brb-credits+{assigner.name}"

    def dispatch(self, requests: _t.Sequence[RequestMessage]) -> None:
        submit = self.gate.submit
        for request in requests:
            submit(request)

    def on_response(self, response: ResponseMessage) -> None:
        self.selector.on_response(response)

    def on_control(self, message: _t.Any) -> None:
        """Route credit grants to the gate."""
        if isinstance(message, CreditGrant):
            self.gate.on_grant(message)
        else:
            raise TypeError(f"BRB-credits got unexpected control {message!r}")


class BRBModelStrategy(_BRBBase):
    """BRB over the ideal global-queue realization."""

    def __init__(
        self,
        placement: Placement,
        assigner: PriorityAssigner,
        service_model: ServiceTimeModel,
        global_queue: GlobalQueue,
    ) -> None:
        super().__init__(placement, assigner, service_model)
        self.global_queue = global_queue
        self.name = f"brb-model+{assigner.name}"

    def dispatch(self, requests: _t.Sequence[RequestMessage]) -> None:
        for request in requests:
            self.global_queue.submit(request)
