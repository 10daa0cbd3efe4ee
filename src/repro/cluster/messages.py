"""Wire messages exchanged between clients, servers and the controller.

A :class:`RequestMessage` is the unit the servers schedule.  It carries the
BRB priority (assigned client-side), the client's service-time forecast and
a timestamp trail that the metrics layer and the tests use to audit the
request life-cycle (created -> dispatched -> enqueued -> service start ->
completed).

All message types are ``__slots__``-based dataclasses (on Python >= 3.10;
see :mod:`repro._compat`): one :class:`RequestMessage` is allocated per
simulated request, and dropping the per-instance ``__dict__`` both shrinks
the hot working set and speeds up the timestamp-field writes on the
service path.  The per-request records are not ``frozen``: a frozen
``__init__`` pays one ``object.__setattr__`` call per field, which a
record that is written once and never mutated gains nothing from; the
control-plane messages (a few per epoch) stay frozen.
"""

from __future__ import annotations

import typing as _t

from .._compat import slots_dataclass
from ..workload.tasks import Operation, Task


@slots_dataclass()
class RequestMessage:
    """One key read in flight.

    ``priority`` is a totally ordered tuple; *smaller sorts first*, and
    servers order their queues by it directly.  The BRB priority
    assigners only ever produce tuples of floats/ints, so comparisons
    never fail at runtime.
    """

    op: Operation
    task_id: int
    client_id: int
    #: Replica group / partition this operation belongs to.
    partition: int
    #: When the client accepted the enclosing task.  Strategies pass it
    #: when they build the request, so the first five-to-eight fields are
    #: the positional call of the per-request path.
    created_at: float = -1.0
    #: Client-side forecast of the service time (the request's "cost").
    expected_service: float = 0.0
    #: Scheduling priority (smaller = served earlier).
    priority: _t.Tuple[float, ...] = (0.0,)
    #: Cost of the bottleneck sub-task of the enclosing task.
    bottleneck_cost: float = 0.0
    #: Server chosen to serve the request (set by replica selection).
    server_id: int = -1
    #: True for speculative duplicates issued by the hedging strategy.
    hedge: bool = False

    # -- later life-cycle timestamps (virtual time; -1 = not yet) -----------
    dispatched_at: float = -1.0
    enqueued_at: float = -1.0
    service_start_at: float = -1.0
    completed_at: float = -1.0

    @property
    def queue_wait(self) -> float:
        """Time spent in the server queue (valid once service started)."""
        if self.service_start_at < 0 or self.enqueued_at < 0:
            raise ValueError("request has not started service yet")
        return self.service_start_at - self.enqueued_at

    @property
    def service_time(self) -> float:
        """Actual service duration (valid once completed)."""
        if self.completed_at < 0 or self.service_start_at < 0:
            raise ValueError("request has not completed yet")
        return self.completed_at - self.service_start_at


@slots_dataclass()
class ServerFeedback:
    """Server state piggybacked on every response (C3-style feedback)."""

    server_id: int
    #: Requests queued (not yet in service) when the response left.
    queue_length: int
    #: Requests currently in service.
    in_service: int
    #: Server-measured EWMA of recent service times.
    ewma_service_time: float


@slots_dataclass()
class ResponseMessage:
    """Completion notice flowing server -> client."""

    request: RequestMessage
    feedback: ServerFeedback


@slots_dataclass(frozen=True)
class DemandReport:
    """Client -> controller: demand per server since the last report."""

    client_id: int
    time: float
    #: server_id -> requests the client wants to send there.
    demand: _t.Mapping[int, float]


@slots_dataclass(frozen=True)
class CreditGrant:
    """Controller -> client: credits per server for the next epoch."""

    client_id: int
    epoch: int
    #: server_id -> number of requests the client may dispatch.
    credits: _t.Mapping[int, float]


@slots_dataclass(frozen=True)
class CongestionSignal:
    """Server -> controller: demand exceeded capacity this epoch."""

    server_id: int
    time: float
    #: Ratio of offered load to capacity observed by the server (>= 1).
    overload_ratio: float


@slots_dataclass()
class TaskCompletion:
    """Internal record emitted when the last response of a task arrives."""

    task: Task
    completed_at: float

    @property
    def latency(self) -> float:
        return self.completed_at - self.task.arrival_time
