"""Unit tests for the C3 baseline: scoring, feedback, rate control."""

import math

import pytest

from repro.baselines import C3Selector, CubicRateLimiter, c3
from repro.cluster import RequestMessage, ResponseMessage, ServerFeedback
from repro.sim import Environment, Stream
from repro.workload.tasks import Operation


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


def make_selector(env=None, rate_control=False):
    env = env or Environment()
    return env, C3Selector(
        env,
        concurrency_weight=10,
        stream=Stream(1),
        initial_rate=1000.0,
        rate_control=rate_control,
    )


class TestScoring:
    def test_unknown_servers_explored(self):
        _, sel = make_selector()
        assert sel.score(0) == -math.inf
        choices = {sel.choose((0, 1, 2), req()) for _ in range(100)}
        assert choices == {0, 1, 2}  # random among unexplored

    def test_feedback_shapes_score(self):
        env, sel = make_selector()
        r0, r1 = req(server=0), req(server=1)
        sel.on_assign(r0)
        sel.on_response(resp(r0, queue_length=0, service_time=1e-3))
        sel.on_assign(r1)
        sel.on_response(resp(r1, queue_length=50, service_time=1e-3))
        assert sel.score(0) < sel.score(1)
        assert sel.choose((0, 1), req()) == 0

    def test_cubic_queue_penalty(self):
        """Doubling the queue estimate should way-more-than-double the
        penalty term (cubic growth)."""
        env, sel = make_selector()
        for server, q in ((0, 10), (1, 20)):
            r = req(server=server)
            sel.on_assign(r)
            sel.on_response(resp(r, queue_length=q, service_time=1e-3))
        s0, s1 = sel.score(0), sel.score(1)
        assert s1 > 4 * s0  # cubic, not linear

    def test_own_outstanding_penalized(self):
        env, sel = make_selector()
        for server in (0, 1):
            r = req(server=server)
            sel.on_assign(r)
            sel.on_response(resp(r, queue_length=1, service_time=1e-3))
        # Pile outstanding (unanswered) requests onto server 0.
        for _ in range(5):
            sel.on_assign(req(server=0))
        assert sel.choose((0, 1), req()) == 1

    def test_choose_picks_a_smallest_score(self):
        """``choose`` ranks with an inlined copy of :meth:`score`: over
        random feedback, its pick always has the replica set's least score."""
        env, sel = make_selector()
        draw = Stream(9)
        for step in range(300):
            server = draw.randrange(6)
            r = req(server=server, op_id=step)
            sel.on_assign(r)
            if draw.random() < 0.7:
                env.run(until=env.now + (0.01 + draw.random()) * 1e-3)
                service_time = draw.random() * 1e-3
                sel.on_response(
                    resp(r, queue_length=draw.randrange(30), service_time=service_time)
                )
            replicas = draw.sample(range(6), 3)
            pick = sel.choose(replicas, req())
            assert sel.score(pick) == min(sel.score(s) for s in replicas)

    def test_outstanding_underflow_detected(self):
        _, sel = make_selector()
        with pytest.raises(RuntimeError):
            sel.on_response(resp(req(server=0)))

    def test_validates(self):
        env = Environment()
        with pytest.raises(ValueError):
            C3Selector(env, concurrency_weight=0, stream=Stream(1), initial_rate=1.0)
        with pytest.raises(ValueError):
            C3Selector(env, concurrency_weight=2, stream=Stream(1), initial_rate=0.0)


class TestCubicRateLimiter:
    def test_tokens_accumulate_with_time(self, monkeypatch):
        monkeypatch.setattr(c3, "BURST", 1.0)
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=10.0)
        assert limiter.try_acquire()
        assert not limiter.try_acquire()  # bucket empty
        env.run(until=0.1)  # one token at 10/s
        assert limiter.try_acquire()

    def test_congestion_cuts_rate(self):
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=1000.0)
        limiter.on_congestion()
        assert limiter.rate == pytest.approx(800.0)
        assert limiter.rate_max == pytest.approx(1000.0)

    def test_congestion_reaction_rate_limited(self):
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=1000.0)
        limiter.on_congestion()
        limiter.on_congestion()  # same instant: ignored
        assert limiter.congestion_events == 1

    def test_cubic_recovery_reaches_plateau(self):
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=1000.0)
        limiter.on_congestion()
        env.run(until=10.0)
        limiter.on_ack()
        assert limiter.rate > 1000.0  # grew past the previous plateau

    def test_min_rate_floor(self, monkeypatch):
        monkeypatch.setattr(c3, "REACTION_INTERVAL", 1e-9)
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=120.0)
        for _ in range(50):
            limiter.on_congestion()
        assert limiter.rate >= c3.MIN_RATE == 100.0

    def test_a_cut_below_the_floor_never_raises_the_rate(self):
        """A limiter that starts under ``MIN_RATE`` floors at its initial
        rate: the multiplicative decrease, and growth at the cut instant,
        leave it at or below where it started."""
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=50.0)
        limiter.on_congestion()
        assert limiter.rate <= 50.0
        limiter = CubicRateLimiter(env, initial_rate=50.0)
        limiter.on_ack()
        assert limiter.rate <= 50.0

    def test_time_until_token(self, monkeypatch):
        monkeypatch.setattr(c3, "BURST", 1.0)
        env = Environment()
        limiter = CubicRateLimiter(env, initial_rate=10.0)
        limiter.try_acquire()
        wait = limiter.time_until_token()
        assert 0 < wait <= 0.1

    def test_validates(self):
        env = Environment()
        with pytest.raises(ValueError):
            CubicRateLimiter(env, initial_rate=0.0)


class TestRateControlIntegration:
    def test_congestion_detected_when_sends_outpace_receives(self, monkeypatch):
        monkeypatch.setattr(c3, "RATE_WINDOW", 0.1)
        env = Environment()
        sel = C3Selector(
            env,
            concurrency_weight=5,
            stream=Stream(1),
            initial_rate=1000.0,
            rate_control=True,
        )

        def driver(env):
            # Send 2x faster than we acknowledge.
            state = sel.state_of(0)
            for i in range(60):
                r = req(server=0, op_id=i)
                sel.on_assign(r)
                sel.on_dispatch(r)
                if i % 2 == 0:
                    r.dispatched_at = env.now
                    sel.on_response(resp(r))
                else:
                    state.outstanding -= 1  # swallow without receive record
                yield env.timeout(0.005)

        env.process(driver(env))
        env.run()
        assert sel.state_of(0).limiter.congestion_events > 0

    def test_no_congestion_when_balanced(self):
        env = Environment()
        sel = C3Selector(
            env,
            concurrency_weight=5,
            stream=Stream(1),
            initial_rate=1000.0,
            rate_control=True,
        )

        def driver(env):
            for i in range(100):
                r = req(server=0, op_id=i)
                sel.on_assign(r)
                sel.on_dispatch(r)
                yield env.timeout(0.002)
                r.dispatched_at = env.now
                sel.on_response(resp(r))

        env.process(driver(env))
        env.run()
        assert sel.state_of(0).limiter.congestion_events == 0

    def test_try_acquire_unlimited_without_rate_control(self):
        env, sel = make_selector(rate_control=False)
        assert all(sel.try_acquire(0) for _ in range(1000))
        assert sel.time_until_slot(0) == 0.0
