"""Clients (application servers): task intake, dispatch and accounting.

A :class:`Client` receives whole tasks, hands them to its
:class:`DispatchStrategy` (which encodes the scheduling approach under
test: task-oblivious + C3, BRB-credits, BRB-model, ...), and records the
task latency when the last response arrives.  The strategy decides *where*
each request goes (replica selection), *what priority* it carries and
*when* it leaves the client (credit gating); the client owns the
bookkeeping that is common to all strategies.

The client is substrate-agnostic: it depends only on the
:class:`~repro.core.clock.Clock` / :class:`~repro.core.clock.Transport`
seam, so the same object dispatches simulated requests over the modelled
network and real requests over the live subsystem's TCP transport
(:mod:`repro.loadgen`).
"""

from __future__ import annotations

import typing as _t

from ..workload.tasks import Task
from .addresses import client_address
from .messages import RequestMessage, ResponseMessage, TaskCompletion

if _t.TYPE_CHECKING:  # pragma: no cover - the seam is structural
    # Imported lazily to keep `repro.cluster` importable before
    # `repro.core` finishes initializing (core's strategies import this
    # module back); at runtime the seam is duck-typed anyway.
    from ..core.clock import Clock, Transport


class DispatchStrategy:
    """Per-client strategy hook.

    ``prepare`` turns a task into request messages (choosing servers and
    priorities); ``dispatch`` moves them toward the backend (possibly
    delayed by gating); ``on_response`` feeds back completions (C3 state,
    outstanding-bytes tracking, credit accounting).
    """

    #: Human-readable strategy name (used in reports).
    name: str = "abstract"

    def bind(self, client: "Client") -> None:
        """Attach the per-client context (called once by the client)."""
        self.client = client

    def prepare(self, task: Task) -> _t.List[RequestMessage]:
        """One request per operation, built with ``created_at`` set to the
        bound client's ``env.now`` (:meth:`Client.submit` checks the count
        and that the stamp is there)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def dispatch(self, requests: _t.Sequence[RequestMessage]) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def on_response(self, response: ResponseMessage) -> None:
        """Default: no feedback needed."""


class Client:
    """An application server issuing batched reads to the data store.

    Observation leaves the client through exactly two hooks:
    ``request_observer(request)`` once per accepted response (the request
    carries its full timestamp trail by then) and
    ``on_complete(completion)`` once per finished task.  Latency
    recording, tracing and the metrics bus all subscribe there.
    """

    def __init__(
        self,
        env: "Clock",
        client_id: int,
        network: "Transport",
        strategy: DispatchStrategy,
        on_complete: _t.Optional[_t.Callable[[TaskCompletion], None]] = None,
        request_observer: _t.Optional[_t.Callable[[RequestMessage], None]] = None,
    ) -> None:
        self.env = env
        self.client_id = int(client_id)
        self.network = network
        self.strategy = strategy
        self.on_complete = on_complete
        self.request_observer = request_observer
        #: task_id -> [task, responses still expected]
        self._pending: _t.Dict[int, _t.List[_t.Any]] = {}
        self.tasks_completed = 0
        self.tasks_submitted = 0
        #: This client's endpoint (strategies send from it).
        self.address = client_address(self.client_id)
        network.register(self.address, self.handle_message)
        strategy.bind(self)
        # Optional strategy hooks, resolved once: hedging vetoes straggler
        # responses so the per-task completion count stays exact; credit
        # grants and other control messages go to whoever understands them.
        self._accepts = getattr(strategy, "accepts_response", None)
        self._on_control = getattr(strategy, "on_control", None)

    # -- intake ---------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Accept a task at its arrival time and set its requests moving."""
        if task.task_id in self._pending:
            raise ValueError(f"task {task.task_id} already pending")
        requests = self.strategy.prepare(task)
        if len(requests) != len(task.operations):
            raise RuntimeError(
                f"strategy {self.strategy.name!r} prepared {len(requests)} "
                f"requests for a fan-out-{task.fanout} task"
            )
        if requests[-1].created_at < 0:
            raise RuntimeError(
                f"strategy {self.strategy.name!r} did not stamp created_at"
            )
        self._pending[task.task_id] = [task, len(requests)]
        self.tasks_submitted += 1
        self.strategy.dispatch(requests)

    # -- responses ---------------------------------------------------------------
    def handle_message(self, message: _t.Any) -> None:
        if not isinstance(message, ResponseMessage):
            if self._on_control is None:
                raise TypeError(
                    f"client {self.client_id} got unexpected message {message!r}"
                )
            self._on_control(message)
            return
        if self._accepts is not None and not self._accepts(message):
            return
        request = message.request
        self.strategy.on_response(message)
        if self.request_observer is not None:
            self.request_observer(request)
        entry = self._pending.get(request.task_id)
        if entry is None:
            raise RuntimeError(
                f"client {self.client_id} got response for unknown task "
                f"{request.task_id}"
            )
        entry[1] -= 1
        if entry[1] > 0:
            return
        del self._pending[request.task_id]
        self.tasks_completed += 1
        if self.on_complete is not None:
            self.on_complete(TaskCompletion(entry[0], self.env.now))

    @property
    def pending_tasks(self) -> int:
        return len(self._pending)
