"""Backend servers: multi-core request execution.

Two execution models, matching the paper's two realizations:

* :class:`BackendServer` -- owns a local queue served smallest priority
  tuple first, arrival order within a tuple (the order of the live
  :class:`~repro.serve.workers.LiveWorker`).  Only the strategy sets the
  tuple: task-oblivious baselines leave the default ``(0.0,)``, which is
  FIFO.  Requests are pushed to it through the network.
* :class:`PullServer` -- owns no queue; its idle cores are handed work from
  a single global priority queue shared by all clients (the paper's ideal
  "model" realization), restricted to requests of partitions the server
  replicates.

Both use the same service-time model (value-size dependent, calibrated to
the paper's 3500 req/s/core) and piggyback queue feedback on responses for
C3's replica ranking.  Everything about a server that does not depend on
*how* time passes is :class:`ServerState`, which the live realm's
:class:`~repro.serve.workers.LiveWorker` inherits too.

The simulated engine is callback-driven, the same admit/complete shape as
the live worker's engine: a request costs the calendar one ``Timer`` for its
service time plus a share of one end-of-instant admit -- no generator per
core, no put/get events.  ``docs/performance.md`` (Stage D) has the
measured before/after.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush
from itertools import count

from ..metrics.timeseries import EwmaEstimator, WindowedRate
from ..sim.engine import Environment
from ..workload.calibration import ServiceTimeModel
from .addresses import CONTROLLER_ADDRESS, client_address, server_address
from .messages import (
    CongestionSignal,
    RequestMessage,
    ResponseMessage,
    ServerFeedback,
)
from .network import Network

if _t.TYPE_CHECKING:  # pragma: no cover - core imports cluster, not vice versa
    from ..core.model_queue import GlobalQueue

__all__ = [
    "CONGESTION_THRESHOLD",
    "BackendServer",
    "PullServer",
    "SERVER_VERBS",
    "ServerState",
    "CONTROLLER_ADDRESS",
    "client_address",
    "server_address",
]

#: A server is congested once offered work exceeds this multiple of its
#: capacity (both realms' congestion check).
CONGESTION_THRESHOLD = 1.3


class ServerState:
    """What one backend server *is*, in either realm.

    Fault state (slowdown factor, nested crash windows), service
    accounting (in-service/completed/busy time, the service-time EWMA),
    the arrival-rate tracker, the capacity estimate, the piggybacked
    feedback and the congestion check.  The simulated servers below and
    the live :class:`~repro.serve.workers.LiveWorker` inherit it and add
    only their execution engine (calendar timers vs event-loop callbacks), so
    the two realms cannot disagree about any of it.  Plain attributes on
    purpose: the engines read them on their hot paths.
    """

    def __init__(
        self,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
    ) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.server_id = int(server_id)
        self.cores = int(cores)
        self.service_model = service_model
        self.in_service = 0
        self.completed = 0
        #: Cumulative busy core-time (model seconds).
        self.busy_time = 0.0
        #: Service-time multiplier; >1 while a fault degrades us.
        self.speed_factor = 1.0
        #: Crash/restart windows survived so far.
        self.crashes = 0
        #: Open crash windows (overlapping crash faults nest).
        self._pause_depth = 0
        #: Server-measured service-time EWMA (100 ms time constant).
        self._ewma_service = EwmaEstimator(0.1, initial=0.0)
        #: Arrival-rate tracker for the congestion check (credits
        #: strategies); a simulated server without the check leaves it empty.
        self.arrival_rate = WindowedRate(window=0.1)

    # -- to be provided by the engines -----------------------------------------
    def queue_length(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _restarted(self) -> None:
        """Engine hook: the last open crash window just closed."""

    # -- faults ----------------------------------------------------------------
    def slowdown(self, factor: float) -> None:
        """Multiply service times; overlapping slowdowns stack."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.speed_factor *= factor

    def restore(self, factor: float) -> None:
        """Undo one :meth:`slowdown` of the same ``factor``."""
        if factor <= 0:
            raise ValueError("restore factor must be positive")
        self.speed_factor /= factor

    @property
    def paused(self) -> bool:
        """True while a crash fault holds the server down."""
        return self._pause_depth > 0

    def pause(self) -> None:
        """Crash: cores stop starting new requests; queued work survives.

        Requests already in service are allowed to finish (the freeze is
        between requests, not mid-request); everything queued is retained
        and served after :meth:`resume`, so tasks are conserved.
        Overlapping crash windows nest: the server runs again only once
        every window has been resumed.
        """
        self._pause_depth += 1
        self.crashes += 1

    def resume(self) -> None:
        """Restart after a crash (a no-op when no window is open)."""
        if self._pause_depth == 0:
            return
        self._pause_depth -= 1
        if self._pause_depth == 0:
            self._restarted()

    # -- service accounting ------------------------------------------------------
    def finish(self, now: float, duration: float) -> None:
        """Account one request leaving its core after ``duration`` seconds."""
        self.in_service -= 1
        self.completed += 1
        self.busy_time += duration
        self._ewma_service.update(now, duration)

    def feedback(self) -> _t.Tuple[int, int, float]:
        """``(queued, in service, service-time EWMA)``, piggybacked on every
        response (C3 input): the sim wraps it in a
        :class:`~repro.cluster.messages.ServerFeedback`, the live server
        packs it on the wire."""
        return (self.queue_length(), self.in_service, self._ewma_service.value)

    def capacity(self) -> float:
        """Estimated requests/second (model time) sustained by all cores."""
        mean = self._ewma_service.value
        if mean <= 0:
            # No observations yet: fall back to the calibrated model with a
            # nominal 1 KiB value.
            mean = self.service_model.expected_time(1024)
        return self.cores / mean

    def overloaded(self, now: float, interval: float) -> _t.Optional[float]:
        """The congestion check: the overload ratio if above
        ``CONGESTION_THRESHOLD``.

        Backlog counts as offered work too -- a deep queue with modest
        arrivals is still congestion -- so the queue is converted to a
        rate over the monitoring interval and added to the measured
        arrival rate before comparing against capacity.
        """
        offered = self.arrival_rate.rate(now) + self.queue_length() / interval
        capacity = self.capacity()
        ratio = offered / capacity if capacity > 0 else float("inf")
        return ratio if ratio > CONGESTION_THRESHOLD else None


#: The admin frame's server verbs, each one :class:`ServerState` call on
#: one target: the fault vocabulary both realms apply (the simulation's
#: :class:`~repro.cluster.faults.SimFaultPort` and the live server's admin
#: plane).  A bad ``factor`` raises before any server changes.
SERVER_VERBS: _t.Dict[
    str, _t.Callable[[ServerState, _t.Mapping[str, _t.Any]], None]
] = {
    "slowdown": lambda server, frame: server.slowdown(float(frame.get("factor", 0))),
    "restore": lambda server, frame: server.restore(float(frame.get("factor", 0))),
    "crash": lambda server, frame: server.pause(),
    "resume": lambda server, frame: server.resume(),
}


class _ServerBase(ServerState):
    """The simulated engine's shared half: start and complete on calendar timers.

    A request occupies a core from :meth:`_start` (which computes its service
    time and arms one ``Timer`` for the finish) to :meth:`_complete`
    (which accounts it, sends the response and calls :meth:`_core_freed`).
    The subclasses differ only in where the next request comes from.
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        network: Network,
    ) -> None:
        super().__init__(server_id, cores, service_model)
        self.env = env
        self.network = network
        self._address = server_address(self.server_id)
        #: client_id -> endpoint, filled as clients show up.
        self._reply_to: _t.Dict[int, _t.Tuple[str, int]] = {}

    def _core_freed(self) -> None:  # pragma: no cover - abstract
        """Engine hook: a core just finished its request."""
        raise NotImplementedError

    def _start(self, request: RequestMessage) -> None:
        """Put ``request`` on a free core until its service time is up."""
        self.in_service += 1
        request.service_start_at = self.env.now
        duration = self.speed_factor * self.service_model.expected_time(
            request.op.value_size
        )
        self.env.call_later(duration, self._complete, (request, duration))

    def _complete(self, served: _t.Tuple[RequestMessage, float]) -> None:
        request, duration = served
        request.completed_at = now = self.env.now
        self.finish(now, duration)
        try:
            client = self._reply_to[request.client_id]
        except KeyError:
            client = self._reply_to[request.client_id] = client_address(
                request.client_id
            )
        feedback = ServerFeedback(self.server_id, *self.feedback())
        self.network.send(self._address, client, ResponseMessage(request, feedback))
        self._core_freed()

    @property
    def utilization(self) -> float:
        """Fraction of core-time spent serving so far."""
        if self.env.now <= 0:
            return 0.0
        return self.busy_time / (self.env.now * self.cores)


class BackendServer(_ServerBase):
    """Queue-owning server (task-oblivious baselines and BRB-credits).

    Requests arrive via the network into a heap ordered by their priority
    tuple (FIFO within a tuple); an end-of-instant *admit* moves them
    onto free cores.  The admit runs at the end of the instant
    (:meth:`~repro.sim.engine.Environment.at_instant_end`), after every
    arrival of its timestamp, so a batch of same-instant arrivals -- one
    task's requests over a constant-latency network -- is ordered *before*
    an idle core takes the first one.  This mirrors how a real server
    drains a kernel socket buffer: everything that arrived is visible
    before the next scheduling decision.

    When ``congestion_interval`` is set, a periodic check compares the
    offered arrival rate against the server's capacity every interval and
    sends a :class:`CongestionSignal` to the controller when overloaded --
    the signal path the paper's credits strategy requires.
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        network: Network,
        congestion_interval: _t.Optional[float] = None,
    ) -> None:
        super().__init__(env, server_id, cores, service_model, network)
        #: Queued requests: (priority tuple, arrival seq, request).
        self._heap: _t.List[_t.Tuple[_t.Any, int, RequestMessage]] = []
        self._seq = count()
        #: An admit is already armed for the end of the current instant.
        self._admit_pending = False
        self.congestion_interval = congestion_interval
        self.congestion_signals_sent = 0
        network.register(self._address, self.handle_message)
        if congestion_interval is not None:
            if congestion_interval <= 0:
                raise ValueError("congestion_interval must be positive")
            env.call_every(congestion_interval, self._check_congestion)

    # -- message handling -----------------------------------------------------
    def handle_message(self, message: _t.Any) -> None:
        if not isinstance(message, RequestMessage):
            raise TypeError(f"server got unexpected message {message!r}")
        now = self.env.now
        message.enqueued_at = now
        if self.congestion_interval is not None:
            self.arrival_rate.record(now)
        heappush(self._heap, (message.priority, next(self._seq), message))
        self._arm_admit()

    def queue_length(self) -> int:
        return len(self._heap)

    # -- the admit/complete engine ----------------------------------------------
    def _arm_admit(self) -> None:
        """Schedule one :meth:`_admit` for the end of the current instant."""
        if not self._admit_pending:
            self._admit_pending = True
            self.env.at_instant_end(self._admit)

    def _admit(self) -> None:
        """Move queued requests onto free cores, smallest key first."""
        self._admit_pending = False
        if self._pause_depth:
            return  # crashed: queued work stays queued until the restart
        heap = self._heap
        while heap and self.in_service < self.cores:
            self._start(heappop(heap)[2])

    def _core_freed(self) -> None:
        if self._heap:
            self._arm_admit()

    def _restarted(self) -> None:
        self._arm_admit()

    def _check_congestion(self, _arg: None) -> None:
        interval = _t.cast(float, self.congestion_interval)
        ratio = self.overloaded(self.env.now, interval)
        if ratio is not None:
            self.congestion_signals_sent += 1
            self.network.send(
                self._address,
                CONTROLLER_ADDRESS,
                CongestionSignal(
                    server_id=self.server_id,
                    time=self.env.now,
                    overload_ratio=ratio,
                ),
            )


class PullServer(_ServerBase):
    """Work-pulling server for the ideal *model* realization.

    All clients put prioritized requests into one shared
    :class:`~repro.core.model_queue.GlobalQueue`; each idle core of each
    server is handed the globally smallest-priority request whose
    partition the server replicates.  This is exactly the paper's
    unrealizable ideal: perfect, instantaneous knowledge of the global
    queue.
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        network: Network,
        global_queue: "GlobalQueue",
        partitions: _t.Iterable[int],
    ) -> None:
        super().__init__(env, server_id, cores, service_model, network)
        self.global_queue = global_queue
        self.partitions = frozenset(partitions)
        if not self.partitions:
            raise ValueError(f"server {server_id} replicates no partitions")
        # The model still needs a network address: responses flow back and
        # some tests ping servers directly.
        network.register(self._address, self._reject)
        #: The global queue's backlog heaps of the partitions we replicate.
        self.backlogs = global_queue.attach(self)

    def _reject(self, message: _t.Any) -> None:
        raise TypeError(
            f"pull-server {self.server_id} does not accept pushed messages"
        )

    def queue_length(self) -> int:
        # The global queue is shared; report only this server's eligible
        # backlog so the feedback stays meaningful.
        return sum(map(len, self.backlogs))

    def pull(self, request: RequestMessage) -> None:
        """Serve ``request``, handed to one of our idle cores by the queue."""
        request.server_id = self.server_id
        self._start(request)

    def _core_freed(self) -> None:
        self.global_queue.core_idle(self)

    def _restarted(self) -> None:
        self.global_queue.arm_flush()
