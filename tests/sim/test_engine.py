"""Unit tests for the environment: clock, calendar, run semantics."""

import inspect

import pytest

import repro.sim
from repro.sim import EmptySchedule, Environment, Infinity
from repro.sim import engine


def noop(_arg):
    pass


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
        env.call_later(7.0, noop)
        env.call_later(3.0, noop)
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
        env.call_later(1.0, noop)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_now_rejected(self):
        env = Environment()
        env.run(until=1.0)
        with pytest.raises(ValueError, match="future"):
            env.run(until=1.0)

    def test_run_until_on_an_empty_calendar_moves_the_clock(self):
        """Nothing else armed: the stop timer is the one entry reached,
        so the clock reads ``until`` and nothing is counted."""
        env = Environment()
        env.run(until=5.0)
        assert env.now == 5.0
        assert env.events_processed == 0
        assert env.peek() == Infinity

    def test_step_moves_the_clock_to_the_entry_and_counts_it(self):
        env = Environment()
        fired = []
        env.call_later(2.5, fired.append, "x")
        env.call_later(4.0, fired.append, "y")
        env.step()
        assert (fired, env.now, env.events_processed) == (["x"], 2.5, 1)

    def test_run_until_exhaustion_returns_none(self):
        env = Environment()
        env.call_later(1.0, noop)
        assert env.run() is None
        assert env.now == 1.0

    def test_step_on_empty_calendar_raises(self):
        with pytest.raises(EmptySchedule):
            Environment().step()

    def test_events_processed_counter(self):
        env = Environment()
        for _ in range(5):
            env.call_later(1.0, noop)
        env.run()
        assert env.events_processed == 5


class TestStop:
    def test_stop_ends_the_run_after_entries_armed_before_it(self):
        """``stop()`` takes the slot ``(now, next sequence)``: same-instant
        entries armed earlier fire, later ones wait for the next run, and
        the stop itself is not counted."""
        env = Environment()
        fired = []

        def stopper(_arg):
            env.stop()
            env.call_later(0.0, fired.append, "armed after")

        env.call_later(1.0, stopper)
        env.call_later(1.0, fired.append, "armed before")
        env.call_later(2.0, fired.append, "later")
        env.run()
        assert fired == ["armed before"]
        assert env.now == 1.0
        assert env.events_processed == 2
        env.run()
        assert fired == ["armed before", "armed after", "later"]
        assert env.events_processed == 4

    def test_run_until_is_an_uncounted_stop_at_that_time(self):
        env = Environment()
        fired = []
        env.call_later(1.0, fired.append, "early")
        env.run(until=1.0)
        env.call_later(0.0, fired.append, "armed-after-the-stop")
        env.run(until=1.5)
        assert fired == ["early", "armed-after-the-stop"]
        assert env.now == 1.5
        assert env.events_processed == 2

    def test_stop_armed_before_until_wins(self):
        env = Environment()
        env.call_later(0.5, lambda _a: env.stop())
        env.call_every(0.1, noop)
        env.run(until=3.0)
        assert env.now == 0.5
        assert env.events_processed == 5 + 1  # ticks at 0.1 .. 0.5, the stopper

    def test_stop_armed_before_run_ends_it_at_once(self):
        env = Environment()
        fired = []
        env.stop()
        env.call_later(0.0, fired.append, "after the stop")
        env.run()
        assert fired == []
        assert env.events_processed == 0
        env.run()
        assert fired == ["after the stop"]

    def test_cancel_all_withdraws_an_armed_stop(self):
        env = Environment()
        env.stop()
        env.cancel_all()
        fired = []
        env.call_later(1.0, fired.append, "a")
        env.call_later(2.0, fired.append, "b")
        env.run()
        assert fired == ["a", "b"]
        assert env.now == 2.0

    def test_a_stop_ends_only_the_run_that_reaches_it(self):
        env = Environment()
        fired = []
        env.call_later(2.0, lambda _a: env.stop())
        env.call_later(3.0, fired.append, "c")
        env.run(until=1.0)
        assert env.now == 1.0
        env.run()
        assert (env.now, fired) == (2.0, [])
        env.run()
        assert (env.now, fired) == (3.0, ["c"])
        assert env.events_processed == 2

    def test_step_over_a_stop_fires_nothing(self):
        env = Environment()
        env.stop()
        env.call_later(0.0, noop)
        env.step()
        assert env.events_processed == 0
        env.step()
        assert env.events_processed == 1


class TestProcess:
    """The generator driver of the test rigs: a process yields delays."""

    def test_runs_to_its_first_yield_at_once(self):
        env = Environment()
        seen = []

        def proc(env):
            seen.append(("start", env.now))
            yield env.timeout(1.0)
            seen.append(("resumed", env.now))

        env.process(proc(env))
        assert seen == [("start", 0.0)]
        env.run()
        assert seen == [("start", 0.0), ("resumed", 1.0)]
        assert env.events_processed == 1

    def test_zero_delay_resumes_at_the_same_instant(self):
        env = Environment()
        seen = []

        def proc(env):
            yield env.timeout(0.0)
            seen.append(env.now)

        env.process(proc(env))
        assert seen == []
        env.run()
        assert seen == [0.0]
        assert env.events_processed == 1

    def test_processes_interleave_in_time_then_arming_order(self):
        """Each resume is a timer armed when the process yielded: b's
        resume at 2.0 (armed at 0) precedes a's (armed at 1.0)."""
        env = Environment()
        trace = []

        def worker(env, name, delays):
            for delay in delays:
                yield env.timeout(delay)
                trace.append((env.now, name))

        env.process(worker(env, "a", (1.0, 1.0)))
        env.process(worker(env, "b", (2.0,)))
        env.process(worker(env, "c", (1.0, 0.5)))
        env.run()
        assert trace == [
            (1.0, "a"), (1.0, "c"), (1.5, "c"), (2.0, "b"), (2.0, "a"),
        ]

    def test_a_returning_process_leaves_nothing_armed(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            yield env.timeout(1.0)
            return "ignored"

        env.process(proc(env))
        env.run()
        assert env.now == 2.0
        assert env.events_processed == 2
        assert env.peek() == Infinity

    def test_non_generator_rejected(self):
        with pytest.raises(TypeError):
            Environment().process(42)

    def test_yielding_a_non_delay_raises_out_of_run(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            yield "soon"

        env.process(proc(env))
        with pytest.raises(TypeError):
            env.run()

    def test_uncaught_exception_raises_out_of_run(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(proc(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_negative_delay_rejected(self):
        env = Environment()

        def proc(env):
            yield env.timeout(-1.0)

        with pytest.raises(ValueError, match="negative"):
            env.process(proc(env))


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
            env.call_later(1.0, order.append, i)
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

    def test_each_tick_counts_as_one_event(self):
        env = Environment()
        env.call_every(0.25, noop)
        env.run(until=1.1)
        assert env.events_processed == 4

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


class TestOneEntryKind:
    """The calendar holds timers only: no event machinery is exported and
    no scheduling call takes a priority."""

    def test_repro_sim_exports_no_event_machinery(self):
        gone = {
            "Event", "Timeout", "Process", "URGENT", "NORMAL", "PENDING",
            "StopSimulation", "SimulationError",
        }
        assert not gone & set(repro.sim.__all__)
        assert not any(hasattr(mod, name) for mod in (repro.sim, engine) for name in gone)
        assert not hasattr(Environment, "schedule")
        assert not hasattr(Environment, "event")

    @pytest.mark.parametrize("method", ["call_later", "call_at", "call_every"])
    def test_scheduling_calls_take_no_priority(self, method):
        params = list(inspect.signature(getattr(Environment, method)).parameters)
        assert params[2:] == ["fn", "arg"]
        assert "priority" not in inspect.signature(engine.PeriodicTimer).parameters
