"""Unit tests for live workers: ordering, crash windows, queue bounds, and
the one pass per wakeup that runs them."""

import asyncio

import pytest
from test_framing import FakeTransport, cut  # the PR-14 chunk-cut harness

from repro.core.clock import WallClock
from repro.serve import workers
from repro.serve.workers import LiveJob, LiveWorker, QueueFullError, WorkerPass
from repro.sim.rng import Stream
from repro.workload.calibration import ServiceTimeModel


def fast_model() -> ServiceTimeModel:
    # ~0.1 ms deterministic service; fast enough for wall-clock tests.
    return ServiceTimeModel(overhead=1e-4, bandwidth=1e12)


def make_worker(**kwargs):
    worker = LiveWorker(
        clock=WallClock(scale=1.0),
        worker_id=0,
        cores=kwargs.pop("cores", 1),
        service_model=fast_model(),
        jitter_stream=Stream(1, "jitter"),
        passes=WorkerPass(),  # its own: a worker arms nothing itself
        **kwargs,
    )
    return worker


def job(rid, priority=(0.0,), completions=None):
    def respond(worker, j, queue_wait, service):
        if completions is not None:
            completions.append(j.rid)

    return LiveJob(rid=rid, key=1, value_size=100, priority=priority, respond=respond)


def arrive(worker, *requests):
    """Submit ``requests`` as one socket chunk: one fresh stamp, then the
    read callback's last act -- the pass (a worker arms nothing itself)."""
    stamp = worker.clock.now
    for request in requests:
        worker.submit(request, stamp)
    worker._passes.run()


def restart(worker):
    """Close one crash window the way an admin ``resume`` frame does: the
    chunk that carried it ends with the pass."""
    worker.resume()
    worker._passes.run()


class TestOrdering:
    def test_priority_order_drains_smallest_first(self):
        async def scenario():
            worker = make_worker()
            worker.pause()  # hold the core so ordering is decided by the heap
            completions = []
            arrive(worker, job(1, (5.0,), completions))
            arrive(worker, job(2, (1.0,), completions))
            arrive(worker, job(3, (3.0,), completions))
            restart(worker)
            while len(completions) < 3:
                await asyncio.sleep(0.005)
            worker.shutdown()
            return completions

        assert asyncio.run(scenario()) == [2, 3, 1]

    def test_equal_priorities_are_fifo(self):
        async def scenario():
            worker = make_worker()
            worker.pause()
            completions = []
            for rid in (1, 2, 3):
                arrive(worker, job(rid, (0.0,), completions))
            restart(worker)
            while len(completions) < 3:
                await asyncio.sleep(0.005)
            worker.shutdown()
            return completions

        assert asyncio.run(scenario()) == [1, 2, 3]


class TestCrashWindows:
    def test_pause_retains_queue_and_resume_serves(self):
        async def scenario():
            worker = make_worker()
            completions = []
            worker.pause()
            arrive(worker, job(1, completions=completions))
            await asyncio.sleep(0.02)
            assert completions == []  # crashed: nothing served
            restart(worker)
            while not completions:
                await asyncio.sleep(0.005)
            worker.shutdown()
            return completions, worker.crashes

        completions, crashes = asyncio.run(scenario())
        assert completions == [1]
        assert crashes == 1

    def test_nested_crash_windows_must_all_close(self):
        async def scenario():
            worker = make_worker()
            completions = []
            worker.pause()
            worker.pause()
            arrive(worker, job(1, completions=completions))
            restart(worker)
            await asyncio.sleep(0.02)
            still_down = not completions
            restart(worker)
            while not completions:
                await asyncio.sleep(0.005)
            worker.shutdown()
            return still_down

        assert asyncio.run(scenario()) is True


class TestBoundsAndFeedback:
    def test_queue_bound_rejects(self, monkeypatch):
        monkeypatch.setattr(workers, "DEFAULT_MAX_QUEUE", 2)

        async def scenario():
            worker = make_worker()
            worker.pause()
            arrive(worker, job(1))
            arrive(worker, job(2))
            with pytest.raises(QueueFullError):
                arrive(worker, job(3))
            rejected = worker.rejected
            worker.resume()
            worker.shutdown()
            return rejected

        assert asyncio.run(scenario()) == 1

    def test_feedback_reports_queue_state(self):
        async def scenario():
            worker = make_worker()
            worker.pause()
            arrive(worker, job(1))
            arrive(worker, job(2))
            feedback = worker.feedback()
            worker.resume()
            worker.shutdown()
            return feedback

        # (queued, in service, service-time EWMA) -- ServerState's triple.
        assert asyncio.run(scenario()) == (2, 0, 0.0)


# -- the admit/complete engine and its one pass, one timer ----------------------


def sized_model() -> ServiceTimeModel:
    # 1 ms + 1 ms per 1000 bytes, deterministic: the value size picks the
    # service time, so a test can put a short job behind a long one.
    return ServiceTimeModel(overhead=1e-3, bandwidth=1e6)


class RecordingModel:
    """A service model that records the value size of each service start."""

    def __init__(self, seconds=1e-4):
        self.starts = []
        self.seconds = seconds

    def expected_time(self, value_size):
        self.starts.append(value_size)
        return self.seconds


def engine_worker(model, cores=1, passes=None, worker_id=0):
    return LiveWorker(
        clock=WallClock(scale=1.0),
        worker_id=worker_id,
        cores=cores,
        service_model=model,
        jitter_stream=Stream(1, "jitter"),
        passes=passes if passes is not None else WorkerPass(),
    )


def sized_job(rid, size, priority=(0.0,), completions=None):
    def respond(worker, j, queue_wait, service):
        completions.append(j.rid)

    return LiveJob(rid=rid, key=1, value_size=size, priority=priority, respond=respond)


class CountingLoop:
    """Wraps the running loop's ``call_at`` for one pass owner (a worker's
    own, or the server's: all its workers share it)."""

    def __init__(self, worker):
        self.loop = asyncio.get_running_loop()
        self.passes = worker._passes
        self.timers = []  # every TimerHandle call_at returned
        self.fired = 0
        self._call_at = self.loop.call_at
        self.loop.call_at = self.call_at

    def call_at(self, when, callback, *args, **kwargs):
        if callback != self.passes._on_timer:
            return self._call_at(when, callback, *args, **kwargs)

        def fire():
            self.fired += 1
            callback(*args)

        handle = self._call_at(when, fire)
        self.timers.append(handle)
        assert self.outstanding() <= 1, "more than one live call_at per server"
        return handle

    def outstanding(self):
        live = [h for h in self.timers if not h.cancelled()]
        return len(live) - self.fired

    def restore(self):
        del self.loop.call_at


async def until(predicate, timeout=2.0, poll=0.002):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(poll)


class TestAdmitEngine:
    def test_same_turn_submits_are_ordered_before_a_core_is_handed_out(self):
        """An *idle* worker must not start the first submit of a chunk:
        priority order, not arrival order -- ``submit`` only queues, the
        pass at the end of the chunk admits."""

        async def scenario():
            worker = engine_worker(sized_model())  # 2 ms each: timers, no polling
            counting = CountingLoop(worker)
            completions = []
            for rid, priority in ((1, (5.0,)), (2, (1.0,)), (3, (3.0,))):
                worker.submit(sized_job(rid, 1_000, priority, completions), 0.0)
            assert worker.in_service == 0 and worker.queue_length() == 3
            worker._passes.run()
            await until(lambda: len(completions) == 3)
            counting.restore()
            worker.shutdown()
            return completions, counting.fired

        completions, fired = asyncio.run(scenario())
        assert completions == [2, 3, 1]
        # A saturated worker admits on completion, from the timer's pass: the
        # two queued jobs never needed another submit or another chunk.
        assert fired == 3

    def test_one_timer_rearmed_when_a_shorter_job_lands_behind_a_longer(self):
        async def scenario():
            worker = engine_worker(sized_model(), cores=2)
            counting = CountingLoop(worker)
            completions = []
            arrive(worker, sized_job(1, 60_000, completions=completions))  # 61 ms
            assert worker.in_service == 1 and len(counting.timers) == 1
            arrive(worker, sized_job(2, 9_000, completions=completions))  # 10 ms
            assert worker.in_service == 2
            rearmed = len(counting.timers), counting.timers[0].cancelled()
            await until(lambda: len(completions) == 2)
            counting.restore()
            worker.shutdown()
            return completions, rearmed, counting.outstanding()

        completions, rearmed, outstanding = asyncio.run(scenario())
        assert completions == [2, 1]
        assert rearmed == (2, True)  # the 61 ms timer was replaced, not joined
        assert outstanding == 0

    def test_a_later_due_time_does_not_rearm(self):
        async def scenario():
            worker = engine_worker(sized_model(), cores=2)
            counting = CountingLoop(worker)
            completions = []
            arrive(worker, sized_job(1, 9_000, completions=completions))
            arrive(worker, sized_job(2, 30_000, completions=completions))
            assert worker.in_service == 2
            timers_before_first_fire = len(counting.timers)
            await until(lambda: len(completions) == 2)
            counting.restore()
            worker.shutdown()
            return timers_before_first_fire, len(counting.timers), completions

        before, total, completions = asyncio.run(scenario())
        assert before == 1  # the longer job rode the timer already armed
        assert total == 2  # ...and got its own only after that one fired
        assert completions == [1, 2]

    def test_a_wait_under_the_select_granularity_still_gets_the_timer_and_no_poll(self):
        """One mechanism: however short the wait, the engine arms the timer
        (it never looks again unasked)."""

        async def scenario():
            model = ServiceTimeModel(overhead=2e-4, bandwidth=1e12)
            worker = engine_worker(model)
            counting = CountingLoop(worker)
            completions = []
            arrive(worker, job(1, completions=completions))  # 200 us are not over
            armed = (len(counting.timers), list(completions))
            await until(lambda: completions == [1])
            counting.restore()
            worker.shutdown()
            return armed, counting.fired

        assert asyncio.run(scenario()) == ((1, []), 1)

    def test_service_times_are_taken_in_pop_order(self):
        async def scenario():
            model = RecordingModel()
            worker = engine_worker(model, cores=2)
            completions = []
            arrive(worker, *(
                sized_job(rid, size, priority, completions)
                for rid, size, priority in (
                    (1, 100, (9.0,)), (2, 200, (1.0,)), (3, 300, (5.0,)), (4, 400, (3.0,)),
                )
            ))  # fmt: skip
            await until(lambda: len(completions) == 4)
            worker.shutdown()
            return model.starts

        assert asyncio.run(scenario()) == [200, 400, 300, 100]

    def test_paused_mid_service_finishes_what_runs_and_admits_nothing(self):
        async def scenario():
            worker = engine_worker(sized_model(), cores=1)
            completions = []
            arrive(worker, sized_job(1, 5_000, completions=completions))  # 6 ms
            await until(lambda: worker.in_service == 1)
            worker.pause()
            worker.pause()  # nested windows
            arrive(worker, sized_job(2, 1_000, (7.0,), completions))
            arrive(worker, sized_job(3, 1_000, (2.0,), completions))
            await until(lambda: completions == [1])
            await asyncio.sleep(0.02)
            while_down = list(completions), worker.in_service, worker.queue_length()
            restart(worker)
            await asyncio.sleep(0.02)
            one_window_left = list(completions)
            restart(worker)
            await until(lambda: len(completions) == 3)
            worker.shutdown()
            return while_down, one_window_left, completions

        while_down, one_window_left, completions = asyncio.run(scenario())
        assert while_down == ([1], 0, 2)
        assert one_window_left == [1]
        assert completions == [1, 3, 2]  # priority order after the restart

    def test_nothing_fires_after_shutdown(self):
        async def scenario():
            completions = []
            timed = engine_worker(sized_model())
            counting = CountingLoop(timed)
            arrive(timed, sized_job(2, 9_000, completions=completions))  # 10 ms
            assert timed.in_service == 1 and counting.outstanding() == 1
            timed._passes.shutdown()  # what LiveServer.stop() does, in its order
            timed.shutdown()
            arrive(timed, sized_job(3, 1_000, completions=completions))  # too late
            await asyncio.sleep(0.04)
            counting.restore()
            return completions, timed.completed, counting.fired

        assert asyncio.run(scenario()) == ([], 0, 0)

    def test_a_worker_shut_down_alone_leaves_its_pass_owner_nothing_to_spin_on(self):
        """``shutdown()`` abandons what is in service: the shared timer's
        pass finds nothing due for it and does not re-arm for the past."""

        async def scenario():
            completions = []
            worker = engine_worker(sized_model())
            counting = CountingLoop(worker)
            arrive(worker, sized_job(1, 1_000, completions=completions))  # 2 ms
            worker.shutdown()
            await asyncio.sleep(0.03)
            counting.restore()
            return completions, len(counting.timers), counting.outstanding()

        assert asyncio.run(scenario()) == ([], 1, 0)

    def test_two_workers_due_in_one_wakeup_are_one_write_on_a_shared_connection(self):
        from repro.serve.codec import BINARY_CODEC
        from repro.serve.server import _Connection

        async def scenario(server):
            connection = _Connection(server)
            transport = FakeTransport(connection)
            connection.connection_made(transport)
            connection.codec = BINARY_CODEC
            counting = CountingLoop(server.workers[0])
            # One op for each of two workers, same size, admitted at one
            # instant: each worker's ``_run`` reads the loop clock itself, so
            # unpinned they fall due microseconds apart, and a wakeup that
            # lands in between (a poll below, a preempted process) would
            # complete them in two passes.
            passes = server.workers[0]._passes
            loop_time = passes.loop_time
            admitted_at = loop_time()
            passes.loop_time = lambda: admitted_at
            connection.data_received(
                BINARY_CODEC.encode_op(1, 0, 1, 64, (0.0,))
                + BINARY_CODEC.encode_op(2, 1, 2, 64, (0.0,))
            )
            passes.loop_time = loop_time
            in_service = [server.workers[w].in_service for w in (0, 1)]
            assert transport.written == []  # admitted, nothing to say yet
            await until(lambda: connection.in_flight == 0 and not connection.out.pending)
            counting.restore()
            return in_service, transport.written, counting.fired, len(counting.timers)

        in_service, written, fired, timers = asyncio.run(with_server(scenario))
        assert in_service == [1, 1]  # both started before data_received returned
        assert len(written) == 1  # one wakeup, one pass, one write: two res frames
        assert fired == 1 and timers == 1  # the second worker rode the first's timer

    def test_a_chunk_of_three_ops_starts_the_smallest_priority_before_returning(self):
        """The end of the chunk is the end of the instant: when
        ``data_received`` returns (no ``await`` in between) the idle one-core
        worker has all three ops in and the best one started, one service
        time taken per admitted op in pop order."""
        from repro.serve.codec import BINARY_CODEC
        from repro.serve.server import _Connection

        async def scenario(server):
            worker = server.workers[0]
            worker.cores = 1
            worker.service_model = model = RecordingModel(seconds=2e-3)
            connection = _Connection(server)
            connection.connection_made(FakeTransport(connection))
            connection.codec = BINARY_CODEC
            connection.data_received(
                b"".join(
                    BINARY_CODEC.encode_op(rid, 0, rid, size, (priority,))
                    for rid, size, priority in ((1, 100, 5.0), (2, 200, 1.0), (3, 300, 3.0))
                )
            )
            at_return = worker.in_service, worker.queue_length(), list(model.starts)
            started = worker._due[0][2].rid
            stamps = {job.enqueued_at for job in [worker._due[0][2], *queued(worker)]}
            await until(lambda: worker.completed == 3)
            return at_return, started, stamps, model.starts

        at_return, started, stamps, starts = asyncio.run(with_server(scenario))
        in_service, queue_length, first_starts = at_return
        assert (in_service, queue_length, started) == (1, 2, 2)
        assert first_starts == [200]  # one service start: one admitted
        assert len(stamps) == 1  # one arrival instant for the chunk
        assert starts == [200, 300, 100]  # pop order

    def test_a_jittered_response_waits_off_core_and_never_after_shutdown(self):
        """Response jitter is one clock timer per response: the core is
        free meanwhile, and shutdown() drops what is still held."""

        async def scenario():
            worker = make_worker()
            worker.set_jitter(0.03, 0.0)  # 30 ms, deterministic
            responses = []  # (rid, model seconds from end of service to respond)

            def respond(worker, j, queue_wait, service):
                served_at = j.enqueued_at + queue_wait + service
                responses.append((j.rid, worker.clock.now - served_at, worker.in_service))

            def held_job(rid):
                return LiveJob(
                    rid=rid, key=1, value_size=100, priority=(0.0,), respond=respond
                )

            arrive(worker, held_job(1))
            while not responses:
                await asyncio.sleep(0.001)
            arrive(worker, held_job(2))
            while worker.completed < 2:
                await asyncio.sleep(0.001)
            worker.shutdown()
            await asyncio.sleep(0.06)
            return responses

        responses = asyncio.run(scenario())
        assert [rid for rid, _, _ in responses] == [1]  # 2 died with shutdown
        _, delay, in_service = responses[0]
        assert delay >= 0.03 - 1e-6
        assert in_service == 0  # held off-core: the core was free meanwhile

    def test_a_started_server_runs_no_worker_or_writer_task(self):
        from repro.scenarios import get_scenario
        from repro.serve import LiveServer

        async def scenario():
            config = get_scenario("steady-state").build_config(
                strategy="c3", n_tasks=10
            )
            server = LiveServer.from_config(config, time_scale=1.0, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await asyncio.sleep(0.01)
                names = sorted(
                    task.get_name()
                    for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()
                )
                writer.close()
                return names
            finally:
                await server.stop()

        # Nothing: no per-worker pump or congestion monitor (one clock timer
        # checks every worker), no per-connection writer, and no handler
        # either -- a connection is a protocol object the transport calls.
        assert asyncio.run(scenario()) == []


# -- the arrival stamp: one clock read per socket chunk -------------------------


class FedConnection:
    """One server connection whose socket chunks the test hands over itself
    (the ``drain_chunks`` idea of ``test_framing``, through the server's own
    protocol object: what the transport would call, called directly)."""

    def __init__(self, server):
        from repro.serve.server import _Connection

        self.server = server
        self.protocol = _Connection(server)
        self.protocol.connection_made(FakeTransport(self.protocol))

    async def feed(self, chunk, completes):
        """One chunk that completes ``completes`` frames: the server has them
        when ``data_received`` returns."""
        want = self.server.frames_received + completes
        self.protocol.data_received(chunk)
        assert self.server.frames_received == want

    async def close(self):
        assert self.protocol.eof_received()  # half-open while ops are in flight
        await self.protocol.close()


async def with_server(scenario, paused=False):
    """Run ``scenario(server)`` against a started server."""
    from repro.scenarios import get_scenario
    from repro.serve import LiveServer

    config = get_scenario("steady-state").build_config(strategy="c3", n_tasks=10)
    server = LiveServer.from_config(config, time_scale=1.0, port=0)
    await server.start()
    if paused:
        for worker in server.workers.values():
            worker.pause()
    try:
        return await scenario(server)
    finally:
        await server.stop()


def with_paused_server(scenario):
    """...whose workers are all crashed: every op stays in its worker's heap,
    stamp and all."""
    return with_server(scenario, paused=True)


def queued(worker):
    """The worker's queued jobs in arrival order."""
    return [entry[2] for entry in sorted(worker._heap, key=lambda entry: entry[1])]


class TestArrivalStamp:
    def test_ops_of_one_stamp_share_it_and_are_admitted_in_priority_order(self):
        async def scenario():
            worker = engine_worker(sized_model())
            served = []  # (rid, queue_wait)

            def respond(worker, j, queue_wait, service):
                served.append((j.rid, queue_wait))

            jobs = [
                LiveJob(rid, 1, 1_000, priority, respond)
                for rid, priority in ((1, (5.0,)), (2, (1.0,)), (3, (3.0,)))
            ]
            before = worker.clock.now
            arrive(worker, *jobs)
            after = worker.clock.now
            await until(lambda: len(served) == 3)
            worker.shutdown()
            return before, after, [j.enqueued_at for j in jobs], served

        before, after, stamps, served = asyncio.run(scenario())
        assert len(set(stamps)) == 1 and before <= stamps[0] <= after
        assert [rid for rid, _ in served] == [2, 3, 1]
        waits = [wait for _, wait in served]
        assert waits[0] >= 0 and waits == sorted(waits)  # one core, 2 ms each

    def test_stamps_never_run_backwards_across_chunks_and_connections(self):
        """Each chunk is stamped right before it is drained, on one loop, so
        whatever the interleaving a worker's arrivals are non-decreasing --
        ``arrival_rate.record`` never sees time go backwards."""
        from repro.serve.codec import BINARY_CODEC
        from repro.serve.protocol import encode_frame, hello_frame

        def chunk(rids):  # every op to worker 0
            return b"".join(BINARY_CODEC.encode_op(r, 0, r, 64, (0.0,)) for r in rids)

        async def scenario(server):
            first, second = FedConnection(server), FedConnection(server)
            for connection in (first, second):
                await connection.feed(encode_frame(hello_frame()), 1)
            await first.feed(chunk([1, 2, 3]), 3)
            await second.feed(chunk([4, 5]), 2)
            await first.feed(chunk([6]), 1)
            await second.feed(chunk([7, 8, 9]), 3)
            worker = server.workers[0]
            jobs = queued(worker)
            counted = worker.arrival_rate.count(server.clock.now)
            await first.close()
            await second.close()
            return [(j.rid, j.enqueued_at) for j in jobs], counted

        arrivals, counted = asyncio.run(with_paused_server(scenario))
        assert [rid for rid, _ in arrivals] == list(range(1, 10))
        stamps = [stamp for _, stamp in arrivals]
        assert stamps == sorted(stamps)
        # One stamp per chunk, shared by its ops; a later chunk, a later stamp.
        by_chunk = [stamps[0:3], stamps[3:5], stamps[5:6], stamps[6:9]]
        assert all(len(set(chunk_stamps)) == 1 for chunk_stamps in by_chunk)
        assert len(set(stamps)) == 4
        assert counted == 9

    def test_a_frame_cut_across_chunks_arrives_with_the_chunk_that_completes_it(self):
        from repro.serve.codec import BINARY_CODEC
        from repro.serve.protocol import encode_frame, hello_frame

        async def scenario(server):
            connection = FedConnection(server)
            await connection.feed(encode_frame(hello_frame()), 1)
            whole = BINARY_CODEC.encode_op(1, 0, 1, 64, (0.0,))
            halved = BINARY_CODEC.encode_op(2, 0, 2, 64, (0.0,))
            early, late = cut(whole + halved, [len(whole) + len(halved) // 2])
            await connection.feed(early, 1)
            between = server.clock.now
            await asyncio.sleep(0.002)
            await connection.feed(late, 1)
            after = server.clock.now
            stamps = {j.rid: j.enqueued_at for j in queued(server.workers[0])}
            await connection.close()
            return stamps, between, after

        stamps, between, after = asyncio.run(with_paused_server(scenario))
        assert stamps[1] <= between  # whole in the first chunk
        assert between < stamps[2] <= after  # completed by the second


# -- completion lateness: the number behind "the epoll millisecond" ---------------


class TestLateness:
    def test_each_completion_adds_how_late_its_pass_ran(self):
        async def scenario():
            worker = LiveWorker(
                clock=WallClock(scale=4.0),
                worker_id=0,
                cores=2,
                service_model=fast_model(),
                jitter_stream=Stream(1, "jitter"),
                passes=WorkerPass(),
            )
            completions = []
            for rid in range(6):
                arrive(worker, job(rid, completions=completions))
            await until(lambda: len(completions) == 6)
            worker.shutdown()
            return worker.lateness_total, worker.lateness_max, worker.stats()

        total, worst, stats = asyncio.run(scenario())
        # A timer never fires early, and six completions cannot all be the worst.
        assert 0.0 < worst <= total <= 6 * worst
        # Exported in model seconds, like every duration on the wire.
        assert stats["lateness_total_s"] == pytest.approx(total / 4.0)
        assert stats["lateness_max_s"] == pytest.approx(worst / 4.0)

    def test_a_run_reports_it_and_the_server_exports_it(self):
        from repro.loadgen import run_live
        from repro.metrics.bus import render_stats
        from repro.scenarios import get_scenario
        from repro.serve import LiveServer

        async def scenario():
            config = get_scenario("steady-state").build_config(
                strategy="unifincr-credits", n_tasks=60
            )
            server = LiveServer.from_config(config, time_scale=2.0, port=0)
            await server.start()
            try:
                result = await run_live(config, endpoints=[(server.host, server.port)])
                return result, render_stats(server.snapshot()), list(server.workers.values())
            finally:
                await server.stop()

        result, text, workers = asyncio.run(scenario())
        stats = workers[0].stats()
        mean = result.extras["live_completion_lateness_mean_s"]
        # Over this run's requests only: never above a worker's worst ever.
        assert 0.0 < mean <= max(w.stats()["lateness_max_s"] for w in workers)
        assert "live_completion_lateness_max_s" not in result.extras
        assert "# TYPE repro_serve_worker_lateness_total_s counter" in text
        assert text.count("repro_serve_worker_lateness_total_s{") == 9
        assert {"lateness_total_s", "lateness_max_s"} <= set(stats)
