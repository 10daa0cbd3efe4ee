"""Unit tests for the environment: clock, calendar, run semantics."""

import pytest

from repro.sim import EmptySchedule, Environment, Infinity, SimulationError


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0

    def test_time_advances_monotonically(self):
        env = Environment()
        stamps = []

        def proc(env):
            for delay in (3.0, 0.0, 2.0, 0.5):
                yield env.timeout(delay)
                stamps.append(env.now)

        env.process(proc(env))
        env.run()
        assert stamps == [3.0, 3.0, 5.0, 5.5]
        assert stamps == sorted(stamps)

    def test_peek_empty_is_infinity(self):
        assert Environment().peek() == Infinity

    def test_peek_returns_next_event_time(self):
        env = Environment()
        env.timeout(7.0)
        env.timeout(3.0)
        assert env.peek() == 3.0


class TestRun:
    def test_run_until_time(self):
        env = Environment()
        fired = []

        def proc(env):
            while True:
                yield env.timeout(1.0)
                fired.append(env.now)

        env.process(proc(env))
        env.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.timeout(1.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.0)
            return "finished"

        p = env.process(proc(env))
        assert env.run(until=p) == "finished"
        assert env.now == 2.0

    def test_run_until_exhaustion_returns_none(self):
        env = Environment()
        env.timeout(1.0)
        assert env.run() is None
        assert env.now == 1.0

    def test_run_until_event_that_never_fires_raises(self):
        env = Environment()
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_run_until_already_processed_event(self):
        env = Environment()
        t = env.timeout(1.0, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_step_on_empty_calendar_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_events_processed_counter(self):
        env = Environment()
        for _ in range(5):
            env.timeout(1.0)
        env.run()
        assert env.events_processed == 5


class TestDeterminism:
    def test_same_program_same_timeline(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                trace.append((env.now, name))
                yield env.timeout(delay)
                trace.append((env.now, name))

            for i, d in enumerate((0.3, 0.1, 0.2)):
                env.process(worker(env, i, d))
            env.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_fifo_tie_break_at_same_timestamp(self):
        env = Environment()
        order = []
        for i in range(10):
            ev = env.timeout(1.0, value=i)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == list(range(10))


class TestPeriodicTimer:
    def test_fires_every_interval_until_run_ends(self):
        env = Environment()
        ticks = []
        env.call_every(0.1, lambda _: ticks.append(env.now))
        env.run(until=0.55)
        assert ticks == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_cancel_stops_the_rearm(self):
        env = Environment()
        ticks = []
        timer = env.call_every(0.1, lambda _: ticks.append(env.now))

        def canceller(env):
            yield env.timeout(0.25)
            timer.cancel()

        env.process(canceller(env))
        env.run(until=1.0)
        assert ticks == pytest.approx([0.1, 0.2])

    def test_cancel_from_inside_the_callback(self):
        env = Environment()
        ticks = []

        def tick(_):
            ticks.append(env.now)
            if len(ticks) == 3:
                timer.cancel()

        timer = env.call_every(0.1, tick)
        env.run(until=1.0)
        assert len(ticks) == 3

    def test_argument_is_threaded_through(self):
        env = Environment()
        seen = []
        env.call_every(0.5, seen.append, arg="payload")
        env.run(until=1.1)
        assert seen == ["payload", "payload"]

    def test_non_positive_interval_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="interval"):
            env.call_every(0.0, lambda _: None)
        with pytest.raises(ValueError, match="interval"):
            env.call_every(-1.0, lambda _: None)

    def test_periodic_timer_rides_along_with_processes(self):
        """An uncancelled periodic timer keeps rearming, so an unbounded
        ``run()`` only drains once its owner cancels it -- the runner's
        teardown contract for the metrics ticker."""
        env = Environment()
        ticks = []
        timer = env.call_every(0.1, lambda _: ticks.append(env.now))

        def worker(env):
            yield env.timeout(0.35)
            timer.cancel()

        env.process(worker(env))
        env.run()
        assert ticks == pytest.approx([0.1, 0.2, 0.3])
        assert env.now <= 0.45
