"""Unit tests for the C3 baseline: scoring, feedback, rate control, pacing."""

import math
from types import SimpleNamespace

import pytest

from repro.baselines import C3Record, C3Strategy, c3
from repro.cluster import RequestMessage, ResponseMessage, RingPlacement, ServerFeedback
from repro.sim import Environment, Stream
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def req(server=0, size=100, op_id=0):
    r = RequestMessage(
        op=Operation(op_id=op_id, task_id=0, key=0, value_size=size),
        task_id=0,
        client_id=0,
        partition=0,
    )
    r.server_id = server
    r.dispatched_at = 0.0
    return r


def resp(request, queue_length=0, in_service=0, service_time=1e-3):
    return ResponseMessage(
        request=request,
        feedback=ServerFeedback(
            server_id=request.server_id,
            queue_length=queue_length,
            in_service=in_service,
            ewma_service_time=service_time,
        ),
    )


def make_strategy(env=None, rate_control=False, concurrency_weight=10, n_servers=6):
    """A C3 client over ``n_servers`` servers (every partition on three),
    bound to a stub client whose sends land in the returned list."""
    env = env or Environment()
    strategy = C3Strategy(
        RingPlacement(n_servers=n_servers, replication_factor=3),
        ServiceTimeModel(overhead=0.0, bandwidth=1e6),
        concurrency_weight=concurrency_weight,
        stream=Stream(1),
        initial_rate=1000.0,
        rate_control=rate_control,
    )
    sent = []
    network = SimpleNamespace(send=lambda src, dst, message: sent.append(message))
    strategy.bind(SimpleNamespace(env=env, client_id=0, address="c0", network=network))
    return env, strategy, sent


def assign(strategy, server, op_id=0):
    """A request assigned to ``server`` by hand (``prepare`` ranks)."""
    record = strategy.records.get(server)
    if record is None:
        record = strategy.records[server] = C3Record(
            strategy.client.env.now, strategy.initial_rate
        )
    record.outstanding += 1
    return req(server=server, op_id=op_id)


def one_op_task(task_id, key=0):
    op = Operation(op_id=task_id, task_id=task_id, key=key, value_size=100)
    return Task(task_id=task_id, arrival_time=0.0, client_id=0, operations=(op,))


class TestScoring:
    def test_unknown_servers_explored(self):
        _, strategy, _ = make_strategy(n_servers=3)
        assert strategy.score(0) == -math.inf
        requests = []
        for t in range(100):
            requests += strategy.prepare(one_op_task(t, key=t))
        assert {r.server_id for r in requests} == {0, 1, 2}  # random among unexplored

    def test_feedback_shapes_score(self):
        env, strategy, _ = make_strategy(n_servers=3)
        r0, r1 = assign(strategy, 0), assign(strategy, 1)
        strategy.on_response(resp(r0, queue_length=0, service_time=1e-3))
        strategy.on_response(resp(r1, queue_length=50, service_time=1e-3))
        strategy.on_response(resp(assign(strategy, 2), queue_length=50))
        assert strategy.score(0) < strategy.score(1)
        assert strategy.prepare(one_op_task(0))[0].server_id == 0

    def test_cubic_queue_penalty(self):
        """Doubling the queue estimate should way-more-than-double the
        penalty term (cubic growth)."""
        env, strategy, _ = make_strategy()
        for server, q in ((0, 10), (1, 20)):
            strategy.on_response(
                resp(assign(strategy, server), queue_length=q, service_time=1e-3)
            )
        s0, s1 = strategy.score(0), strategy.score(1)
        assert s1 > 4 * s0  # cubic, not linear

    def test_own_outstanding_penalized(self):
        env, strategy, _ = make_strategy(n_servers=3)
        for server in (0, 1, 2):
            strategy.on_response(
                resp(assign(strategy, server), queue_length=1, service_time=1e-3)
            )
        # Pile outstanding (unanswered) requests onto server 0.
        for _ in range(5):
            assign(strategy, 0)
        assert strategy.prepare(one_op_task(0))[0].server_id != 0

    def test_prepare_picks_a_smallest_score(self):
        """``prepare`` ranks with an inlined copy of :meth:`score`: over
        random feedback, its pick always had its replica set's least score."""
        env, strategy, _ = make_strategy()
        placement = strategy.placement
        draw = Stream(9)
        for step in range(300):
            r = assign(strategy, draw.randrange(6), op_id=step)
            if draw.random() < 0.7:
                env.run(until=env.now + (0.01 + draw.random()) * 1e-3)
                service_time = draw.random() * 1e-3
                strategy.on_response(
                    resp(r, queue_length=draw.randrange(30), service_time=service_time)
                )
            task = one_op_task(step, key=draw.randrange(1000))
            replicas = placement.replicas_of(
                placement.partition_of(task.operations[0].key)
            )
            scores = {s: strategy.score(s) for s in replicas}
            pick = strategy.prepare(task)[0].server_id
            assert scores[pick] == min(scores.values())

    def test_outstanding_underflow_detected(self):
        _, strategy, _ = make_strategy()
        with pytest.raises(RuntimeError):
            strategy.on_response(resp(req(server=0)))
        assign(strategy, 0)
        strategy.on_response(resp(req(server=0)))
        with pytest.raises(RuntimeError):
            strategy.on_response(resp(req(server=0)))

    def test_time_going_backwards_is_refused(self):
        env, strategy, _ = make_strategy()
        env.run(until=1.0)
        strategy.on_response(resp(assign(strategy, 0)))
        strategy.client = SimpleNamespace(env=SimpleNamespace(now=0.5))
        with pytest.raises(ValueError):
            strategy.on_response(resp(assign(strategy, 0)))

    def test_validates(self):
        placement = RingPlacement(n_servers=3, replication_factor=3)
        model = ServiceTimeModel(overhead=0.0, bandwidth=1e6)
        with pytest.raises(ValueError):
            C3Strategy(
                placement, model, concurrency_weight=0, stream=Stream(1), initial_rate=1.0
            )
        with pytest.raises(ValueError):
            C3Strategy(
                placement, model, concurrency_weight=2, stream=Stream(1), initial_rate=0.0
            )


class TestCubicRateLimiter:
    """The record's limiter: :meth:`C3Record.cut`, ``grow``, ``acquire``."""

    def test_tokens_accumulate_with_time(self, monkeypatch):
        monkeypatch.setattr(c3, "BURST", 1.0)
        record = C3Record(0.0, initial_rate=10.0)
        assert record.acquire(0.0) == 0.0
        assert record.acquire(0.0) > 0.0  # bucket empty
        assert record.acquire(0.1) == 0.0  # one token at 10/s

    def test_congestion_cuts_rate(self):
        record = C3Record(0.0, initial_rate=1000.0)
        record.cut(0.0)
        assert record.rate == pytest.approx(800.0)
        assert record.rate_max == pytest.approx(1000.0)

    def test_congestion_reaction_rate_limited(self):
        record = C3Record(0.0, initial_rate=1000.0)
        record.cut(0.0)
        record.cut(0.0)  # same instant: ignored
        record.cut(c3.REACTION_INTERVAL / 2)  # same epoch: ignored
        assert record.cuts == 1
        record.cut(c3.REACTION_INTERVAL)
        assert record.cuts == 2

    def test_cubic_recovery_reaches_plateau(self):
        record = C3Record(0.0, initial_rate=1000.0)
        record.cut(0.0)
        record.grow(10.0)
        assert record.rate > 1000.0  # grew past the previous plateau

    def test_min_rate_floor(self, monkeypatch):
        monkeypatch.setattr(c3, "REACTION_INTERVAL", 1e-9)
        record = C3Record(0.0, initial_rate=120.0)
        for i in range(50):
            record.cut(i * 1e-3)
        assert record.cuts == 50
        assert record.rate >= c3.MIN_RATE == 100.0

    def test_a_cut_below_the_floor_never_raises_the_rate(self):
        """A limiter that starts under ``MIN_RATE`` floors at its initial
        rate: the multiplicative decrease, and growth at the cut instant,
        leave it at or below where it started."""
        record = C3Record(0.0, initial_rate=50.0)
        record.cut(0.0)
        assert record.rate <= 50.0
        record = C3Record(0.0, initial_rate=50.0)
        record.grow(0.0)
        assert record.rate <= 50.0

    def test_time_until_token(self, monkeypatch):
        monkeypatch.setattr(c3, "BURST", 1.0)
        record = C3Record(0.0, initial_rate=10.0)
        record.acquire(0.0)
        wait = record.acquire(0.0)
        assert 0 < wait <= 0.1


class TestRateControlIntegration:
    def test_congestion_detected_when_sends_outpace_receives(self, monkeypatch):
        monkeypatch.setattr(c3, "RATE_WINDOW", 0.1)
        env, strategy, _ = make_strategy(rate_control=True, concurrency_weight=5)
        # Send 2x faster than we acknowledge.
        for i in range(60):
            r = assign(strategy, 0, op_id=i)
            strategy.dispatch([r])
            if i % 2 == 0:
                strategy.on_response(resp(r))
            else:
                strategy.records[0].outstanding -= 1  # swallow without receive record
            env.run(until=env.now + 0.005)
        assert strategy.records[0].cuts > 0

    def test_no_congestion_when_balanced(self):
        env, strategy, _ = make_strategy(rate_control=True, concurrency_weight=5)
        for i in range(100):
            r = assign(strategy, 0, op_id=i)
            strategy.dispatch([r])
            env.run(until=env.now + 0.002)
            strategy.on_response(resp(r))
        assert strategy.records[0].cuts == 0

    def test_unpaced_without_rate_control(self):
        env, strategy, sent = make_strategy(rate_control=False)
        requests = [assign(strategy, 0, op_id=i) for i in range(1000)]
        strategy.dispatch(requests)
        assert sent == requests
        assert strategy.paced_requests == 0 and not strategy.records[0].backlog

    def test_a_new_request_can_overtake_the_backlog(self, monkeypatch):
        """The backlog is FIFO, but a request dispatched while it waits
        tries the gate too: when the rate grew since the pacer was armed,
        a token matures before the pacer's turn and the newcomer takes it.
        Kept as C3 has always run (fixing it moves every c3 schedule)."""
        monkeypatch.setattr(c3, "BURST", 1.0)
        env, strategy, sent = make_strategy(rate_control=True)
        strategy.initial_rate = 10.0
        first, waiting = assign(strategy, 0, op_id=1), assign(strategy, 0, op_id=2)
        strategy.dispatch([first, waiting])
        assert sent == [first] and list(strategy.records[0].backlog) == [waiting]
        env.run(until=0.05)
        strategy.on_response(resp(first))  # growth: the next token is early
        env.run(until=0.095)
        newcomer = assign(strategy, 0, op_id=3)
        strategy.dispatch([newcomer])
        assert sent == [first, newcomer]
        assert list(strategy.records[0].backlog) == [waiting]
        env.run(until=1.0)
        assert sent == [first, newcomer, waiting]
        assert strategy.paced_requests == 1
