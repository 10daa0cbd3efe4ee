"""Unit tests for event primitives (succeed, fail, timeouts)."""

import pytest

from repro.sim import Environment, Event, SimulationError, Timeout


class TestEvent:
    def test_starts_pending(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_carries_value(self):
        env = Environment()
        ev = env.event().succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_raises(self):
        env = Environment()
        ev = env.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_value_is_exception(self):
        env = Environment()
        exc = RuntimeError("boom")
        ev = env.event().fail(exc)
        ev.defuse()
        assert not ev.ok
        assert ev.value is exc

    def test_unhandled_failure_crashes_run(self):
        env = Environment()
        env.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_crash(self):
        env = Environment()
        ev = env.event().fail(RuntimeError("handled"))
        ev.defuse()
        env.run()  # no raise

    def test_callbacks_run_at_processing(self):
        env = Environment()
        seen = []
        ev = env.event()
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == ["x"]
        assert ev.processed


class TestTimeout:
    def test_fires_at_delay(self):
        env = Environment()
        env.timeout(2.5)
        env.run()
        assert env.now == 2.5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_carries_value(self):
        env = Environment()
        results = []

        def proc(env):
            value = yield env.timeout(1.0, value="done")
            results.append(value)

        env.process(proc(env))
        env.run()
        assert results == ["done"]

    def test_zero_delay_is_valid(self):
        env = Environment()
        t = env.timeout(0.0)
        env.run()
        assert env.now == 0.0
        assert t.processed
