"""Stateful invariants of :class:`ServerState`, stated once for every server.

``BackendServer``, ``PullServer`` (sim) and ``LiveWorker`` (live) all
inherit the same fault/accounting state, so one hypothesis machine drives
arbitrary ``pause/resume/slowdown/restore/start/finish`` interleavings
against an instance of each and checks the invariants the fault injector
and the congestion path rely on.

The simulated engines get a second property on top: whatever the arrival,
crash and slowdown program, every submitted request is served exactly once,
in causal order, on at most ``cores`` cores at a time, and nothing starts
inside a crash window.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster import (
    BackendServer,
    Network,
    PullServer,
    RequestMessage,
    ServerState,
    client_address,
    server_address,
)
from repro.cluster.network import ConstantLatency
from repro.core.clock import WallClock
from repro.core.model_queue import GlobalQueue
from repro.serve.workers import LiveWorker, WorkerPass
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation

CORES = 3
MODEL = ServiceTimeModel(overhead=1e-4, bandwidth=1e9)


def make_backend_server():
    env = Environment()
    server = BackendServer(
        env,
        server_id=0,
        cores=CORES,
        service_model=MODEL,
        network=Network(env, stream=Stream(0, "n")),
    )
    return server, lambda: None


def make_pull_server():
    env = Environment()
    queue = GlobalQueue(env, latency=ConstantLatency(0.0), stream=Stream(2, "gq"))
    server = PullServer(
        env,
        server_id=0,
        cores=CORES,
        service_model=MODEL,
        network=Network(env, stream=Stream(0, "n")),
        global_queue=queue,
        partitions=(0,),
    )
    return server, lambda: None


def make_live_worker():
    # The worker's pass owner arms its handles on the running loop; the
    # machine only exercises the inherited state, so the loop never spins.
    loop = asyncio.new_event_loop()

    async def build():
        return LiveWorker(
            clock=WallClock(scale=1.0),
            worker_id=0,
            cores=CORES,
            service_model=MODEL,
            jitter_stream=Stream(1, "jitter"),
            passes=WorkerPass(),
        )

    worker = loop.run_until_complete(build())

    def teardown():
        worker._passes.shutdown()
        worker.shutdown()
        loop.run_until_complete(asyncio.sleep(0))  # let the cancel land
        loop.close()

    return worker, teardown


FACTORS = st.sampled_from([1.5, 2.0, 3.0, 7.0])


class ServerStateMachine(RuleBasedStateMachine):
    """Subclassed per server class via ``make`` (see the bottom of the file)."""

    make = staticmethod(make_backend_server)

    def __init__(self):
        super().__init__()
        self.server, self._teardown = self.make()
        assert isinstance(self.server, ServerState)
        self.now = 0.0
        self.open_pauses = 0
        self.open_slowdowns = []
        self.seen_completed = 0
        self.seen_busy = 0.0
        self.seen_crashes = 0

    def teardown(self):
        self._teardown()

    # -- crash windows ---------------------------------------------------------
    @rule()
    def pause(self):
        self.server.pause()
        self.open_pauses += 1

    @rule()
    def resume(self):
        # Deliberately unguarded: an unmatched resume must be a no-op.
        self.server.resume()
        self.open_pauses = max(0, self.open_pauses - 1)

    # -- slowdown windows ------------------------------------------------------
    @rule(factor=FACTORS)
    def slowdown(self, factor):
        self.server.slowdown(factor)
        self.open_slowdowns.append(factor)

    @precondition(lambda self: self.open_slowdowns)
    @rule(data=st.data())
    def restore(self, data):
        # Windows close in any order, not just LIFO.
        index = data.draw(st.integers(0, len(self.open_slowdowns) - 1))
        self.server.restore(self.open_slowdowns.pop(index))

    # -- service accounting ----------------------------------------------------
    @precondition(lambda self: self.server.in_service < CORES and not self.server.paused)
    @rule()
    def start(self):
        # What both engines do on admission (behind their own guard).
        self.server.in_service += 1

    @precondition(lambda self: self.server.in_service > 0)
    @rule(duration=st.floats(1e-6, 1e-2))
    def finish(self, duration):
        self.now += duration
        self.server.finish(self.now, duration)

    # -- invariants ------------------------------------------------------------
    @invariant()
    def paused_iff_a_crash_window_is_open(self):
        assert self.server.paused == (self.open_pauses > 0)
        assert self.server._pause_depth == self.open_pauses

    @invariant()
    def crashes_count_pauses_and_never_drop(self):
        assert self.server.crashes >= self.seen_crashes
        self.seen_crashes = self.server.crashes

    @invariant()
    def balanced_slowdowns_restore_full_speed(self):
        if not self.open_slowdowns:
            assert self.server.speed_factor == pytest.approx(1.0, abs=1e-12)
        else:
            assert self.server.speed_factor > 1.0

    @invariant()
    def cores_bound_in_service(self):
        assert 0 <= self.server.in_service <= CORES

    @invariant()
    def completed_and_busy_time_are_monotone(self):
        assert self.server.completed >= self.seen_completed
        assert self.server.busy_time >= self.seen_busy
        self.seen_completed = self.server.completed
        self.seen_busy = self.server.busy_time

    @invariant()
    def capacity_and_feedback_stay_well_formed(self):
        assert self.server.capacity() > 0
        queued, in_service, ewma = self.server.feedback()
        assert queued >= 0 and in_service == self.server.in_service and ewma >= 0
        # Idle-or-not, an empty queue with no arrivals is never "overloaded".
        if queued == 0:
            assert self.server.overloaded(self.now + 1.0, 0.1) is None


class PullServerStateMachine(ServerStateMachine):
    make = staticmethod(make_pull_server)


class LiveWorkerStateMachine(ServerStateMachine):
    make = staticmethod(make_live_worker)


_SETTINGS = settings(max_examples=40, stateful_step_count=40, deadline=None)

TestBackendServerState = ServerStateMachine.TestCase
TestBackendServerState.settings = _SETTINGS
TestPullServerState = PullServerStateMachine.TestCase
TestPullServerState.settings = _SETTINGS
TestLiveWorkerState = LiveWorkerStateMachine.TestCase
TestLiveWorkerState.settings = _SETTINGS


class TestSlowdownValidation:
    @pytest.mark.parametrize("verb", ["slowdown", "restore"])
    def test_non_positive_factor_rejected(self, verb):
        server, _ = make_backend_server()
        with pytest.raises(ValueError, match="positive"):
            getattr(server, verb)(0.0)
        assert server.speed_factor == 1.0


# -- the simulated engines: conservation under arbitrary fault programs --------

_STEP = st.one_of(
    st.tuples(st.just("arrive"), st.integers(1, 5), st.integers(0, 3)),
    st.tuples(st.just("pause")),
    st.tuples(st.just("resume")),
    st.tuples(st.just("slowdown"), FACTORS),
    st.tuples(st.just("restore")),
)
#: (gap to the previous step in seconds -- zero gaps make same-instant
#: batches -- and the step).
_PROGRAM = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), _STEP),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("pull", [False, True], ids=["backend", "pull"])
@given(program=_PROGRAM, cores=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_every_request_completes_exactly_once(pull, program, cores):
    env = Environment()
    network = Network(env, latency=ConstantLatency(0.0), stream=Stream(0, "n"))
    responses = []
    network.register(client_address(0), responses.append)
    common = dict(
        server_id=0,
        cores=cores,
        service_model=ServiceTimeModel(overhead=0.0, bandwidth=1.0),
        network=network,
    )
    if pull:
        queue = GlobalQueue(env, latency=ConstantLatency(0.0), stream=Stream(2, "gq"))
        server = PullServer(env, global_queue=queue, partitions=(0,), **common)
        submit = queue.submit
    else:
        server = BackendServer(env, **common)

        def submit(request):
            network.send(client_address(0), server_address(0), request)

    submitted = []
    slowdowns = []

    def apply(step):
        kind = step[0]
        if kind == "arrive":
            request = RequestMessage(
                op=Operation(
                    op_id=len(submitted), task_id=0, key=0, value_size=step[1]
                ),
                task_id=0,
                client_id=0,
                partition=0,
                priority=(float(step[2]),),
            )
            submitted.append(request)
            submit(request)
        elif kind == "pause":
            server.pause()
        elif kind == "resume":
            server.resume()
        elif kind == "slowdown":
            slowdowns.append(step[1])
            server.slowdown(step[1])
        elif slowdowns:
            server.restore(slowdowns.pop())

    at = 0.0
    for gap, step in program:
        at += gap
        env.call_at(at, apply, step)
    # Close whatever crash windows the program left open, so it can drain.
    for _ in program:
        env.call_at(at + 1.0, apply, ("resume",))

    while env.peek() != float("inf"):
        was_paused, was_in_service = server.paused, server.in_service
        env.step()
        assert 0 <= server.in_service <= cores
        if was_paused and server.paused:  # nothing starts while crashed
            assert server.in_service <= was_in_service

    assert server.in_service == 0 and server.queue_length() == 0
    assert server.completed == len(submitted)
    assert sorted(r.request.op.op_id for r in responses) == list(
        range(len(submitted))
    )
    for request in submitted:
        assert 0.0 <= request.enqueued_at <= request.service_start_at
        assert request.service_start_at <= request.completed_at
