"""Unit tests for live workers: ordering, crash windows, queue bounds."""

import asyncio

import pytest

from repro.core.clock import WallClock
from repro.serve.workers import LiveJob, LiveWorker, QueueFullError
from repro.sim.rng import Stream
from repro.workload.calibration import ServiceTimeModel


def fast_model() -> ServiceTimeModel:
    # ~0.1 ms deterministic service; fast enough for wall-clock tests.
    return ServiceTimeModel(overhead=1e-4, bandwidth=1e12, noise="none")


def make_worker(**kwargs):
    worker = LiveWorker(
        clock=WallClock(scale=1.0),
        worker_id=0,
        cores=kwargs.pop("cores", 1),
        service_model=fast_model(),
        service_stream=Stream(1, "svc"),
        **kwargs,
    )
    return worker


def job(rid, priority=(0.0,), completions=None):
    def respond(worker, j, queue_wait, service):
        if completions is not None:
            completions.append(j.rid)

    return LiveJob(rid=rid, key=1, value_size=100, priority=priority, respond=respond)


class TestOrdering:
    def test_priority_order_drains_smallest_first(self):
        async def scenario():
            worker = make_worker()
            worker.pause()  # hold the core so ordering is decided by the heap
            completions = []
            worker.submit(job(1, (5.0,), completions))
            worker.submit(job(2, (1.0,), completions))
            worker.submit(job(3, (3.0,), completions))
            worker.resume()
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
                worker.submit(job(rid, (0.0,), completions))
            worker.resume()
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
            worker.submit(job(1, completions=completions))
            await asyncio.sleep(0.02)
            assert completions == []  # crashed: nothing served
            worker.resume()
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
            worker.submit(job(1, completions=completions))
            worker.resume()
            await asyncio.sleep(0.02)
            still_down = not completions
            worker.resume()
            while not completions:
                await asyncio.sleep(0.005)
            worker.shutdown()
            return still_down

        assert asyncio.run(scenario()) is True


class TestBoundsAndFeedback:
    def test_queue_bound_rejects(self):
        async def scenario():
            worker = make_worker(max_queue=2)
            worker.pause()
            worker.submit(job(1))
            worker.submit(job(2))
            with pytest.raises(QueueFullError):
                worker.submit(job(3))
            rejected = worker.rejected
            worker.resume()
            worker.shutdown()
            return rejected

        assert asyncio.run(scenario()) == 1

    def test_feedback_reports_queue_state(self):
        async def scenario():
            worker = make_worker()
            worker.pause()
            worker.submit(job(1))
            worker.submit(job(2))
            feedback = worker.feedback()
            worker.resume()
            worker.shutdown()
            return feedback

        # (queued, in service, service-time EWMA) -- ServerState's triple.
        assert asyncio.run(scenario()) == (2, 0, 0.0)
