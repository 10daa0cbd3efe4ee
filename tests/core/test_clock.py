"""The Clock seam's contract, stated once and run against both realizations.

``Environment`` (virtual time) and ``WallClock`` (scaled wall time over
asyncio) must agree on what ``call_later`` / ``call_every`` / ``cancel``
mean, because the strategy stack arms the same callbacks on either.  The
second half pins what only a wall clock has to get right: the scale, the
first-error funnel, and ``cancel_all``.
"""

import asyncio
import time

import pytest

from repro.baselines.hedging import HedgedStrategy
from repro.core.clock import Clock, WallClock
from repro.loadgen import run_live
from repro.scenarios import get_scenario
from repro.serve import LiveServer
from repro.sim import Environment

#: One model second takes 10 ms of wall time in the wall-clock half.
SCALE = 0.01
#: An asyncio timer may fire one clock resolution (1 ns) early.
EARLY = 1e-6


def _on_sim(body):
    """Run ``body(clock, advance, until)`` on a bare calendar."""
    env = Environment()

    async def advance(model_seconds):
        env.run(until=env.now + model_seconds)

    async def until(condition):
        while not condition():
            env.step()

    return asyncio.run(body(env, advance, until))


def _on_wall(body):
    """Run ``body(clock, advance, until)`` on a wall clock in an event loop.

    ``until`` polls instead of sleeping a computed time: a stalled CI box
    may deliver any timer late, never early and never out of order, and
    the contract below is worded accordingly.
    """

    async def main():
        clock = WallClock(scale=SCALE)

        async def advance(model_delay):
            await asyncio.sleep(model_delay * SCALE)

        async def until(condition):
            deadline = time.monotonic() + 20.0
            while not condition():
                assert time.monotonic() < deadline, "condition never held"
                await asyncio.sleep(0.002)

        try:
            return await body(clock, advance, until)
        finally:
            clock.cancel_all()

    return asyncio.run(main())


@pytest.fixture(params=[_on_sim, _on_wall], ids=["Environment", "WallClock"])
def realm(request):
    return request.param


class TestClockContract:
    def test_both_satisfy_the_protocol(self):
        assert isinstance(Environment(), Clock)
        assert isinstance(WallClock(), Clock)

    def test_call_later_fires_once_with_its_arg_after_the_delay(self, realm):
        async def body(clock, advance, until):
            fired = []
            start = clock.now
            clock.call_later(1.0, lambda arg: fired.append((arg, clock.now)), "x")
            await until(lambda: fired)
            await advance(2.0)
            return start, fired

        start, fired = realm(body)
        assert [arg for arg, _ in fired] == ["x"]
        assert fired[0][1] - start >= 1.0 - EARLY

    def test_call_every_fires_each_interval_until_cancelled(self, realm):
        async def body(clock, advance, until):
            ticks = []
            start = clock.now
            handle = clock.call_every(1.0, lambda arg: ticks.append(clock.now), None)
            await until(lambda: len(ticks) >= 3)
            handle.cancel()
            seen = len(ticks)
            await advance(3.0)
            return start, ticks, seen

        start, ticks, seen = realm(body)
        assert len(ticks) == seen  # nothing after cancel()
        # The first call is one interval from now, the n-th at least n.
        for n, at in enumerate(ticks, start=1):
            assert at - start >= n * 1.0 - EARLY

    def test_call_every_rearms_after_fn_returns(self, realm):
        """What ``fn`` schedules one interval ahead fires before the next
        tick: the re-arm is the *last* thing a tick does."""

        async def body(clock, advance, until):
            log = []

            def tick(_arg):
                log.append("tick")
                clock.call_later(1.0, log.append, "scheduled-by-tick")

            handle = clock.call_every(1.0, tick)
            await until(lambda: len(log) >= 5)
            handle.cancel()
            return log

        log = realm(body)
        assert log[:5] == [
            "tick",
            "scheduled-by-tick",
            "tick",
            "scheduled-by-tick",
            "tick",
        ]

    def test_cancel_withdraws_a_pending_call_later(self, realm):
        async def body(clock, advance, until):
            fired = []
            clock.call_later(1.0, fired.append, "withdrawn").cancel()
            clock.call_later(1.0, fired.append, "kept")
            await until(lambda: fired)
            await advance(1.0)
            return fired

        assert realm(body) == ["kept"]

    def test_a_periodic_callback_may_cancel_itself(self, realm):
        async def body(clock, advance, until):
            ticks = []

            def tick(_arg):
                ticks.append(clock.now)
                if len(ticks) == 2:
                    handle.cancel()

            handle = clock.call_every(1.0, tick)
            await until(lambda: len(ticks) >= 2)
            await advance(3.0)
            return ticks

        assert len(realm(body)) == 2

    def test_bad_delays_are_rejected(self, realm):
        async def body(clock, advance, until):
            with pytest.raises(ValueError):
                clock.call_later(-1.0, print)
            with pytest.raises(ValueError):
                clock.call_every(0.0, print)

        realm(body)


class TestWallClock:
    def test_scale_stretches_delays_and_now_reads_model_seconds(self):
        async def body():
            clock = WallClock(scale=0.05)
            fired = asyncio.Event()
            wall_start = time.monotonic()
            clock.call_later(1.0, lambda _arg: fired.set())
            await asyncio.wait_for(fired.wait(), timeout=5.0)
            return time.monotonic() - wall_start, clock.now

        wall, model = asyncio.run(body())
        assert wall >= 0.05 - EARLY  # 1 model second = 0.05 wall seconds
        assert model >= 1.0 - EARLY
        assert model == pytest.approx(wall / 0.05, rel=0.2)

    def test_first_error_reaches_every_subscriber_exactly_once(self):
        async def body():
            clock = WallClock(scale=SCALE)
            early, late = [], []
            clock.on_error(early.append)
            clock.on_error(early.append)  # two subscribers, same sink
            ticks = []

            def failing_tick(_arg):
                ticks.append(clock.now)
                raise RuntimeError("first")

            def fail_again(_arg):
                raise RuntimeError("second")

            clock.call_every(1.0, failing_tick)
            clock.call_later(2.0, fail_again)
            await asyncio.sleep(4.0 * SCALE)
            clock.on_error(late.append)  # subscribes after the fact
            return clock.first_error, early, late, ticks

        first, early, late, ticks = asyncio.run(body())
        assert str(first) == "first"
        assert early == [first, first]  # once per subscriber; "second" is dropped
        assert late == [first]
        assert len(ticks) == 1  # a failed periodic callback is not re-armed

    def test_an_error_nobody_subscribed_to_goes_to_the_loop_handler(self):
        async def body():
            seen = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: seen.append(context["exception"])
            )
            clock = WallClock(scale=SCALE)

            def boom(_arg):
                raise RuntimeError("unobserved")

            clock.call_later(0.5, boom)
            await asyncio.sleep(2.0 * SCALE)
            return seen, clock.first_error

        seen, first = asyncio.run(body())
        assert [str(error) for error in seen] == ["unobserved"]
        assert seen == [first]

    def test_cancel_all_leaves_no_armed_handle(self):
        async def body():
            clock = WallClock(scale=SCALE)
            fired = []
            for delay in (1.0, 4.0, 5.0):
                clock.call_later(delay, fired.append, delay)
            clock.call_every(1.0, fired.append, "tick")
            await asyncio.sleep(1.5 * SCALE)
            before = list(fired)
            armed_before = len(clock._armed)
            clock.cancel_all()
            armed_after = len(clock._armed)
            await asyncio.sleep(6.0 * SCALE)  # past every cancelled deadline
            return before, fired, armed_before, armed_after

        before, fired, armed_before, armed_after = asyncio.run(body())
        assert 1.0 in before and "tick" in before
        assert fired == before  # nothing fired after cancel_all()
        assert armed_before > 0 and armed_after == 0

    def test_fired_one_shots_are_not_kept(self):
        """One timer per hedged or paced request: the armed set must not
        grow with the request count."""

        async def body():
            clock = WallClock(scale=SCALE)
            for _ in range(50):
                clock.call_later(0.1, lambda _arg: None)
            await asyncio.sleep(1.0 * SCALE)
            return len(clock._armed)

        assert asyncio.run(body()) == 0


def test_run_live_surfaces_a_failing_strategy_callback(monkeypatch):
    """A strategy timer that raises must fail the run with *its* exception,
    at once -- not with the wall timeout minutes later."""

    def boom(self, _armed):
        raise RuntimeError("hedge timer blew up")

    monkeypatch.setattr(HedgedStrategy, "_hedge_due", boom)

    async def scenario():
        config = get_scenario("steady-state").build_config(
            strategy="hedged", n_tasks=150
        )
        server = LiveServer.from_config(config, time_scale=2.0, port=0)
        await server.start()
        try:
            await run_live(
                config, endpoints=[(server.host, server.port)], wall_timeout=60.0
            )
        finally:
            await server.stop()

    started = time.monotonic()
    with pytest.raises(RuntimeError, match="hedge timer blew up") as caught:
        asyncio.run(scenario())
    assert time.monotonic() - started < 30.0
    assert caught.traceback[-1].name == "boom"  # the real traceback
