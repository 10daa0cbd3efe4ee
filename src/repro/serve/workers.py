"""Live backend workers: bounded priority queues drained by a core pump.

A :class:`LiveWorker` is the wall-clock engine over the same
:class:`~repro.cluster.server.ServerState` the simulation's
:class:`~repro.cluster.server.BackendServer` runs on: requests land in a bounded
priority queue (smaller priority tuple first, FIFO within a priority),
``cores`` of them may be in service at once, and each is held for a
*calibrated* service time (the same value-size-dependent
:class:`~repro.workload.calibration.ServiceTimeModel` the simulation
samples, stretched by the clock's time scale).

Rather than one asyncio task per core each awaiting its own
``asyncio.sleep`` -- which costs a timer-heap entry and an event-loop
wakeup per request, and at small time scales runs into epoll's
millisecond rounding -- a single *pump* task per worker keeps a due-time
heap of in-service requests and sleeps until the earliest one finishes.
One wakeup then completes every request due by that instant, so the
timer cost is amortized across the batch; this is what lets the firehose
benchmark drive tens of thousands of ops per second through a worker
whose emulated service times are microseconds of wall time.

The fault hooks scenario schedules replay against -- ``slowdown``/
``restore`` (stacking service-time multipliers) and ``pause``/``resume``
(crash/restart with nested windows; the queue is retained) -- are
:class:`~repro.cluster.server.ServerState`'s own, shared with the
simulated servers.  The one live-only hook is response ``jitter``, the
stand-in for a degraded network on a loopback link: an extra lognormal
delay added to each response.
"""

from __future__ import annotations

import asyncio
import heapq
import time
import typing as _t
from itertools import count

from ..cluster.server import ServerState
from ..core.clock import WallClock
from ..sim.rng import Stream
from ..workload.calibration import ServiceTimeModel
from .protocol import ProtocolError

#: Default bound on one worker's queue; hitting it is a protocol error
#: (an open-loop generator that outruns the backend this far is measuring
#: the bound, not the scheduler).
DEFAULT_MAX_QUEUE = 100_000


class QueueFullError(ProtocolError):
    """The worker's bounded queue rejected a request."""


class LiveJob:
    """One enqueued request plus its completion callback."""

    __slots__ = (
        "rid",
        "key",
        "value_size",
        "priority",
        "respond",
        "enqueued_at",
    )

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
    """One backend worker: a bounded priority queue drained by a core pump."""

    def __init__(
        self,
        clock: WallClock,
        worker_id: int,
        cores: int,
        service_model: ServiceTimeModel,
        service_stream: Stream,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        super().__init__(worker_id, cores, service_model, service_stream)
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        self.clock = clock
        self.max_queue = int(max_queue)
        self._heap: _t.List[_t.Tuple[_t.Tuple[float, ...], int, LiveJob]] = []
        self._seq = count()
        #: In-service requests: (wall due time, seq, job, model start time).
        self._due: _t.List[_t.Tuple[float, int, LiveJob, float]] = []
        #: Set whenever the pump may have new work to admit (a submitted
        #: job, a closed crash window).
        self._wakeup = asyncio.Event()
        #: Extra per-response delay (model s); the loopback jitter stand-in.
        self.jitter_mean = 0.0
        self.jitter_sigma = 0.0
        self.rejected = 0
        #: In-flight jittered responses (kept referenced until delivered).
        self._jitter_tasks: _t.Set["asyncio.Task[None]"] = set()
        self._pump_task: "asyncio.Task[None]" = (
            asyncio.get_running_loop().create_task(
                self._pump(), name=f"live-worker{worker_id}.pump"
            )
        )

    # -- intake -------------------------------------------------------------
    def submit(self, job: LiveJob) -> None:
        """Enqueue one request (raises :class:`QueueFullError` at the bound)."""
        if len(self._heap) >= self.max_queue:
            self.rejected += 1
            raise QueueFullError(
                f"worker {self.server_id} queue bound {self.max_queue} hit"
            )
        job.enqueued_at = self.clock.now
        self.arrival_rate.record(job.enqueued_at)
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))
        self._wakeup.set()

    def queue_length(self) -> int:
        return len(self._heap)

    def _restarted(self) -> None:
        self._wakeup.set()

    def set_jitter(self, mean: float, sigma: float) -> None:
        """Add (or clear, with mean 0) per-response delay."""
        if mean < 0 or sigma < 0:
            raise ValueError("jitter parameters must be non-negative")
        self.jitter_mean = float(mean)
        self.jitter_sigma = float(sigma)

    # -- the service loop --------------------------------------------------------
    async def _pump(self) -> None:
        """Admit queued jobs onto free cores, complete them when due.

        One task per worker; per pump wakeup it admits every admissible
        job and completes every due one, so the per-request cost is heap
        operations, not event-loop handles.
        """
        heap = self._heap
        due = self._due
        scale = self.clock.scale
        while True:
            if heap and self.in_service < self.cores and not self._pause_depth:
                now_wall = time.monotonic()
                start = self.clock.now  # one admission instant per wakeup
                while heap and self.in_service < self.cores:
                    _, _, job = heapq.heappop(heap)
                    duration = self.speed_factor * self.service_model.sample_time(
                        job.value_size, self.service_stream
                    )
                    heapq.heappush(
                        due,
                        (now_wall + duration * scale, next(self._seq), job, start),
                    )
                    self.in_service += 1
            if not due:
                # Idle (or crashed with nothing in service): wait for a
                # submit or a closed crash window.
                self._wakeup.clear()
                if heap and not self._pause_depth:
                    continue  # submitted between the admission loop and here
                await self._wakeup.wait()
                continue
            delay = due[0][0] - time.monotonic()
            if delay > 0:
                if self.in_service < self.cores:
                    # A submit (or resume) could admit work mid-sleep, so
                    # wait on whichever comes first.
                    self._wakeup.clear()
                    if heap and not self._pause_depth:
                        continue
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), delay)
                    except TimeoutError:
                        pass
                else:
                    # Saturated: nothing to admit until a completion.
                    await asyncio.sleep(delay)
            now_wall = time.monotonic()
            while due and due[0][0] <= now_wall:
                _, _, job, start = heapq.heappop(due)
                self._complete(job, start)

    def _complete(self, job: LiveJob, start: float) -> None:
        end = self.clock.now
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
                self.service_stream.lognormal_mean(
                    self.jitter_mean, self.jitter_sigma
                )
                if self.jitter_sigma > 0
                else self.jitter_mean
            )
            task = asyncio.get_running_loop().create_task(
                self._respond_later(delay, job, queue_wait, service)
            )
            self._jitter_tasks.add(task)
            task.add_done_callback(self._jitter_tasks.discard)
        else:
            job.respond(self, job, queue_wait, service)

    async def _respond_later(
        self, delay: float, job: LiveJob, queue_wait: float, service: float
    ) -> None:
        await self.clock.sleep(delay)
        job.respond(self, job, queue_wait, service)

    def stats(self) -> _t.Dict[str, _t.Any]:
        return {
            "worker": self.server_id,
            "completed": self.completed,
            "queued": self.queue_length(),
            "in_service": self.in_service,
            "rejected": self.rejected,
            "crashes": self.crashes,
            "speed_factor": self.speed_factor,
            "busy_time_s": self.busy_time,
        }

    def shutdown(self) -> None:
        for task in [self._pump_task] + list(self._jitter_tasks):
            if not task.done():
                task.cancel()
