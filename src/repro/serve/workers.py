"""Live backend workers: bounded priority queues on an admit/complete engine.

A :class:`LiveWorker` is the wall-clock engine over the same
:class:`~repro.cluster.server.ServerState` the simulation's
:class:`~repro.cluster.server.BackendServer` runs on: requests land in a bounded
priority queue (smaller priority tuple first, FIFO within a priority),
``cores`` of them may be in service at once, and each is held for a
*calibrated* service time (the same value-size-dependent
:class:`~repro.workload.calibration.ServiceTimeModel` the simulation
serves, stretched by the clock's time scale).

The engine is callback-driven, the same admit/complete shape as the
simulated servers, and owns no task and no event-loop handle:

* ``submit`` only *queues*, under the arrival instant its caller read (the
  server reads the clock once per socket chunk).  It never starts service,
  so every op of a chunk arrives at one instant and is in the heap before
  the first core is handed out (the sim's same-instant arrivals and
  end-of-instant admit);
* ``_run`` admits while cores are free (one admission instant per batch,
  in pop order), completes every request already due --
  each at its *own* instant, because the service-time EWMA gives a
  sample at ``dt == 0`` no weight -- and repeats until neither applies;
* a :class:`WorkerPass`, one per server, decides *when* ``_run`` runs: as
  the last act of the read callback that submitted or resumed (the end of
  the chunk is the end of the instant), or from **one** ``call_at`` for the
  earliest due time over all its workers, so one wakeup completes whatever
  fell due anywhere and leaves in one write per connection.  Code that
  submits by hand (a test) calls ``passes.run()``.  epoll rounds a sleep up
  to the millisecond, so on an idle loop a wait of microseconds costs one
  (``docs/performance.md``, Stage E): ``lateness_*`` measure it.

The fault hooks scenario schedules replay against -- ``slowdown``/
``restore`` (stacking service-time multipliers) and ``pause``/``resume``
(crash/restart with nested windows; the queue is retained) -- are
:class:`~repro.cluster.server.ServerState`'s own, shared with the
simulated servers.  The one live-only hook is response ``jitter``, the
stand-in for a degraded network on a loopback link: an extra lognormal
delay added to each response, drawn from the worker's own stream.
"""

from __future__ import annotations

import asyncio
import heapq
import typing as _t
from itertools import count
from math import inf

from ..cluster.server import ServerState
from ..core.clock import WallClock
from ..sim.rng import Stream
from ..workload.calibration import ServiceTimeModel
from .protocol import ProtocolError

#: Bound on one worker's queue; hitting it is a protocol error
#: (an open-loop generator that outruns the backend this far is measuring
#: the bound, not the scheduler).
DEFAULT_MAX_QUEUE = 100_000


class QueueFullError(ProtocolError):
    """The worker's bounded queue rejected a request."""


class LiveJob:
    """One enqueued request plus its completion callback (built per op)."""

    __slots__ = ("rid", "key", "value_size", "priority", "respond", "enqueued_at")

    def __init__(
        self,
        rid: int,
        key: int,
        value_size: int,
        priority: _t.Tuple[float, ...],
        respond: _t.Callable[["LiveWorker", "LiveJob", float, float], None],
    ) -> None:
        self.rid = rid
        self.key = key
        self.value_size = value_size
        self.priority = priority
        self.respond = respond
        self.enqueued_at = -1.0


class LiveWorker(ServerState):
    """One backend worker: a bounded priority queue on an admit/complete engine."""

    def __init__(
        self,
        clock: WallClock,
        worker_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        jitter_stream: Stream,
        passes: "WorkerPass",
    ) -> None:
        super().__init__(worker_id, cores, service_model)
        self.clock = clock
        self._passes = passes  # who calls ``_run``: a worker arms nothing
        passes.workers.append(self)
        self._heap: _t.List[_t.Tuple[_t.Tuple[float, ...], int, LiveJob]] = []
        self._seq = count()
        #: In-service requests: (due on the loop's clock, seq, job, model
        #: start time).  The loop's clock, not ``time.monotonic``, because
        #: that is what ``call_at`` is measured against on every loop.
        self._due: _t.List[_t.Tuple[float, int, LiveJob, float]] = []
        self._closed = False
        #: How late completions ran after their due time (wall seconds).
        self.lateness_total = self.lateness_max = 0.0
        #: Extra per-response delay (model s); the loopback jitter stand-in.
        self.jitter_stream = jitter_stream
        self.jitter_mean = 0.0
        self.jitter_sigma = 0.0
        self.rejected = 0

    # -- intake -------------------------------------------------------------
    def submit(self, job: LiveJob, now: float) -> None:
        """Enqueue one request that arrived at model time ``now`` -- the
        caller's one clock read per socket chunk, never running backwards
        (raises :class:`QueueFullError` at the bound)."""
        if len(self._heap) >= DEFAULT_MAX_QUEUE:
            self.rejected += 1
            raise QueueFullError(
                f"worker {self.server_id} queue bound {DEFAULT_MAX_QUEUE} hit"
            )
        job.enqueued_at = now
        self.arrival_rate.record(now)
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))

    def queue_length(self) -> int:
        return len(self._heap)

    def set_jitter(self, mean: float, sigma: float) -> None:
        """Add (or clear, with mean 0) per-response delay."""
        if mean < 0 or sigma < 0:
            raise ValueError("jitter parameters must be non-negative")
        self.jitter_mean = float(mean)
        self.jitter_sigma = float(sigma)

    # -- the admit/complete engine ------------------------------------------------
    def _run(self) -> None:
        """Admit onto free cores, complete what is due, repeat: the
        per-request cost is heap operations, not event-loop handles (the
        :class:`WorkerPass` that called re-arms the one timer)."""
        if self._closed:
            return
        heap = self._heap
        due = self._due
        loop_time = self._passes.loop_time
        clock_now = self.clock.read
        scale = self.clock.scale
        while True:
            if heap and self.in_service < self.cores and not self._pause_depth:
                now_wall = loop_time()
                start = clock_now()  # one admission instant per batch
                while heap and self.in_service < self.cores:
                    job = heapq.heappop(heap)[2]
                    duration = self.speed_factor * self.service_model.expected_time(
                        job.value_size
                    )
                    heapq.heappush(
                        due,
                        (now_wall + duration * scale, next(self._seq), job, start),
                    )
                    self.in_service += 1
            now_wall = loop_time()
            if not due or due[0][0] > now_wall:
                break
            while due and due[0][0] <= now_wall:
                when, _, job, start = heapq.heappop(due)
                late = now_wall - when
                self.lateness_total += late
                if late > self.lateness_max:
                    self.lateness_max = late
                self._complete(job, start, clock_now())

    def _complete(self, job: LiveJob, start: float, end: float) -> None:
        # Account the *actual* elapsed model time: on a wall clock the
        # sleep can overshoot, and honest feedback must include that.
        service = end - start
        self.finish(end, service)
        queue_wait = max(0.0, start - job.enqueued_at)
        if self.jitter_mean > 0:
            # Jitter models the *network*, not the server: delay the
            # response off-core so capacity is untouched (matching the
            # simulated NetworkJitterFault, which only delays messages).
            delay = (
                self.jitter_stream.lognormal_mean(
                    self.jitter_mean, self.jitter_sigma
                )
                if self.jitter_sigma > 0
                else self.jitter_mean
            )
            self.clock.call_later(
                delay, self._respond_jittered, (job, queue_wait, service)
            )
        else:
            job.respond(self, job, queue_wait, service)

    def _respond_jittered(self, held: _t.Tuple[LiveJob, float, float]) -> None:
        if not self._closed:
            job, queue_wait, service = held
            job.respond(self, job, queue_wait, service)

    def stats(self) -> _t.Dict[str, _t.Any]:
        return {
            "worker": self.server_id,
            "completed": self.completed,
            "queued": self.queue_length(),
            "in_service": self.in_service,
            "rejected": self.rejected,
            "arrival_rate": self.arrival_rate.rate(self.clock.now),
            "crashes": self.crashes,
            "speed_factor": self.speed_factor,
            "busy_time_s": self.busy_time,
            "lateness_total_s": self.lateness_total / self.clock.scale,
            "lateness_max_s": self.lateness_max / self.clock.scale,
        }

    def shutdown(self) -> None:
        """Abandon what is in service and drop delayed responses: nothing of
        this worker completes or responds afterwards."""
        self._closed = True
        self._due.clear()


class WorkerPass:
    """One pass per wakeup over a server's workers, and the only event-loop
    handle armed for them: **one** ``call_at`` for the earliest due time over
    all workers, replaced only when that moves earlier."""

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        #: The loop's clock, not ``time.monotonic``: what ``call_at`` obeys.
        self.loop_time = self._loop.time
        self.workers: _t.List[LiveWorker] = []
        self._timer: _t.Optional[asyncio.TimerHandle] = None

    def _on_timer(self) -> None:
        self._timer = None
        self.run()

    def run(self) -> None:
        """Run every worker with due or admissible work, re-arm the timer."""
        now = self.loop_time()
        earliest = inf
        for worker in self.workers:
            due = worker._due
            if (due and due[0][0] <= now) or (
                worker._heap
                and worker.in_service < worker.cores
                and not worker._pause_depth
            ):
                worker._run()
            if due and due[0][0] < earliest:
                earliest = due[0][0]
        if earliest < (inf if self._timer is None else self._timer.when()):
            if self._timer is not None:
                self._timer.cancel()
            self._timer = self._loop.call_at(earliest, self._on_timer)

    def shutdown(self) -> None:
        """Cancel the timer; nothing fires afterwards."""
        if self._timer is not None:
            self._timer.cancel()
