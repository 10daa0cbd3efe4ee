"""Backend servers: multi-core request execution.

Two execution models, matching the paper's two realizations:

* :class:`BackendServer` -- owns a local queue ordered by a pluggable
  discipline (FIFO for task-oblivious baselines, priority for
  BRB-credits).  Requests are pushed to it through the network.
* :class:`PullServer` -- owns no queue; its cores *work-pull* from a single
  global priority store shared by all clients (the paper's ideal "model"
  realization), restricted to requests of partitions the server replicates.

Both use the same service-time model (value-size dependent, calibrated to
the paper's 3500 req/s/core) and piggyback queue feedback on responses for
C3's replica ranking.  Everything about a server that does not depend on
*how* time passes is :class:`ServerState`, which the live realm's
:class:`~repro.serve.workers.LiveWorker` inherits too.
"""

from __future__ import annotations

import typing as _t

from ..metrics.timeseries import EwmaEstimator, WindowedRate
from ..sim.engine import Environment
from ..sim.rng import Stream
from ..sim.resources import PriorityFilterStore, PriorityItem, PriorityStore
from ..scheduling.disciplines import Discipline, FifoDiscipline
from ..workload.calibration import ServiceTimeModel
from .addresses import CONTROLLER_ADDRESS, client_address, server_address
from .messages import (
    CongestionSignal,
    RequestMessage,
    ResponseMessage,
    ServerFeedback,
)
from .network import Network

__all__ = [
    "BackendServer",
    "PullServer",
    "ServerState",
    "CONTROLLER_ADDRESS",
    "client_address",
    "server_address",
]


class ServerState:
    """What one backend server *is*, in either realm.

    Fault state (slowdown factor, nested crash windows), service
    accounting (in-service/completed/busy time, the service-time EWMA),
    the arrival-rate tracker, the capacity estimate, the piggybacked
    feedback and the congestion check.  The simulated servers below and
    the live :class:`~repro.serve.workers.LiveWorker` inherit it and add
    only their execution engine (process-per-core vs a due-heap pump), so
    the two realms cannot disagree about any of it.  Plain attributes on
    purpose: the engines read them on their hot paths.
    """

    def __init__(
        self,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        service_stream: Stream,
    ) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.server_id = int(server_id)
        self.cores = int(cores)
        self.service_model = service_model
        self.service_stream = service_stream
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
        #: Arrival-rate tracker for congestion detection (credits strategy).
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

    def overloaded(
        self, now: float, interval: float, threshold: float
    ) -> _t.Optional[float]:
        """The congestion check: the overload ratio if above ``threshold``.

        Backlog counts as offered work too -- a deep queue with modest
        arrivals is still congestion -- so the queue is converted to a
        rate over the monitoring interval and added to the measured
        arrival rate before comparing against capacity.
        """
        offered = self.arrival_rate.rate(now) + self.queue_length() / interval
        capacity = self.capacity()
        ratio = offered / capacity if capacity > 0 else float("inf")
        return ratio if ratio > threshold else None


class _ServerBase(ServerState):
    """The simulated engine's shared half: one process per core."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        network: Network,
        service_stream: Stream,
    ) -> None:
        super().__init__(server_id, cores, service_model, service_stream)
        self.env = env
        self.network = network
        #: Resume event while paused (crashed); ``None`` when healthy.
        self._resume: _t.Optional[_t.Any] = None

    def pause(self) -> None:
        super().pause()
        if self._resume is None:
            self._resume = self.env.event()

    def _restarted(self) -> None:
        event, self._resume = self._resume, None
        event.succeed(None)

    def _serve(self, request: RequestMessage) -> _t.Generator:
        """Execute one request on the calling core and send the response."""
        request.service_start_at = self.env.now
        duration = self.speed_factor * self.service_model.sample_time(
            request.op.value_size, self.service_stream
        )
        yield self.env.timeout(duration)
        request.completed_at = now = self.env.now
        self.finish(now, duration)
        response = ResponseMessage(
            request=request,
            feedback=ServerFeedback(self.server_id, *self.feedback()),
        )
        self.network.send(
            server_address(self.server_id),
            client_address(request.client_id),
            response,
        )

    @property
    def utilization(self) -> float:
        """Fraction of core-time spent serving so far."""
        if self.env.now <= 0:
            return 0.0
        return self.busy_time / (self.env.now * self.cores)


class BackendServer(_ServerBase):
    """Queue-owning server (task-oblivious baselines and BRB-credits).

    Requests arrive via the network into a priority store ordered by the
    configured discipline; ``cores`` worker processes drain it.

    When ``congestion_interval`` is set, a monitor process compares the
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
        service_stream: Stream,
        discipline: _t.Optional[Discipline] = None,
        congestion_interval: _t.Optional[float] = None,
        congestion_threshold: float = 1.3,
    ) -> None:
        super().__init__(
            env, server_id, cores, service_model, network, service_stream
        )
        self.discipline = discipline if discipline is not None else FifoDiscipline()
        self._store = PriorityStore(env)
        self.congestion_interval = congestion_interval
        self.congestion_threshold = congestion_threshold
        self.congestion_signals_sent = 0
        network.register(server_address(self.server_id), self.handle_message)
        for core in range(self.cores):
            env.process(self._core_loop(), name=f"server{self.server_id}.core{core}")
        if congestion_interval is not None:
            if congestion_interval <= 0:
                raise ValueError("congestion_interval must be positive")
            env.process(
                self._congestion_monitor(), name=f"server{self.server_id}.monitor"
            )

    # -- message handling -----------------------------------------------------
    def handle_message(self, message: _t.Any) -> None:
        if not isinstance(message, RequestMessage):
            raise TypeError(f"server got unexpected message {message!r}")
        now = self.env.now
        message.enqueued_at = now
        self.arrival_rate.record(now)
        key = self.discipline.key(message, now)
        self._store.put(PriorityItem(key, message))

    def queue_length(self) -> int:
        return len(self._store)

    # -- processes --------------------------------------------------------------
    def _core_loop(self) -> _t.Generator:
        while True:
            item = yield self._store.get()
            while self._resume is not None:  # crashed: hold work until restart
                yield self._resume
            request = _t.cast(RequestMessage, _t.cast(PriorityItem, item).item)
            self.in_service += 1
            yield from self._serve(request)

    def _congestion_monitor(self) -> _t.Generator:
        interval = _t.cast(float, self.congestion_interval)
        while True:
            yield self.env.timeout(interval)
            ratio = self.overloaded(
                self.env.now, interval, self.congestion_threshold
            )
            if ratio is not None:
                self.congestion_signals_sent += 1
                self.network.send(
                    server_address(self.server_id),
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
    :class:`PriorityFilterStore`; each core of each server pulls the
    globally smallest-priority request whose partition the server
    replicates.  This is exactly the paper's unrealizable ideal: perfect,
    instantaneous knowledge of the global queue.
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        network: Network,
        service_stream: Stream,
        global_queue: PriorityFilterStore,
        partitions: _t.Iterable[int],
    ) -> None:
        super().__init__(
            env, server_id, cores, service_model, network, service_stream
        )
        self.global_queue = global_queue
        self.partitions = frozenset(partitions)
        if not self.partitions:
            raise ValueError(f"server {server_id} replicates no partitions")
        # The model still needs a network address: responses flow back and
        # some tests ping servers directly.
        network.register(server_address(self.server_id), self._reject)
        for core in range(self.cores):
            env.process(self._core_loop(), name=f"pull{self.server_id}.core{core}")

    def _reject(self, message: _t.Any) -> None:
        raise TypeError(
            f"pull-server {self.server_id} does not accept pushed messages"
        )

    def _accepts(self, item: _t.Any) -> bool:
        request = _t.cast(RequestMessage, _t.cast(PriorityItem, item).item)
        return request.partition in self.partitions

    def queue_length(self) -> int:
        # The global queue is shared; report only this server's eligible
        # backlog so the feedback stays meaningful.
        return sum(1 for item in self.global_queue.items if self._accepts(item))

    def _core_loop(self) -> _t.Generator:
        while True:
            item = yield self.global_queue.get(self._accepts)
            while self._resume is not None:  # crashed: hold work until restart
                yield self._resume
            request = _t.cast(RequestMessage, _t.cast(PriorityItem, item).item)
            request.enqueued_at = (
                request.enqueued_at if request.enqueued_at >= 0 else self.env.now
            )
            request.server_id = self.server_id
            self.in_service += 1
            yield from self._serve(request)
