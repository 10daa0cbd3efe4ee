"""Unit tests for generator processes: waiting, joining, failures."""

import pytest

from repro.sim import Environment


class TestBasics:
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return "result"

        p = env.process(proc(env))
        env.run()
        assert p.value == "result"
        assert not p.is_alive

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_is_alive_while_running(self):
        env = Environment()
        observations = []

        def short(env):
            yield env.timeout(1.0)

        def watcher(env, target):
            observations.append(target.is_alive)
            yield env.timeout(2.0)
            observations.append(target.is_alive)

        p = env.process(short(env))
        env.process(watcher(env, p))
        env.run()
        assert observations == [True, False]

    def test_fork_join(self):
        env = Environment()
        log = []

        def child(env, name, delay):
            yield env.timeout(delay)
            log.append(name)
            return name

        def parent(env):
            children = [
                env.process(child(env, "a", 2.0)),
                env.process(child(env, "b", 1.0)),
            ]
            results = []
            for process in children:
                results.append((yield process))
            log.append(tuple(results))

        env.process(parent(env))
        env.run()
        assert log == ["b", "a", ("a", "b")]

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def proc(env):
            yield 42  # type: ignore[misc]

        p = env.process(proc(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()
        assert not p.ok

    def test_uncaught_exception_fails_process_and_run(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(proc(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_waiting_on_failed_event_rethrows_inside_process(self):
        env = Environment()
        caught = []

        def proc(env):
            ev = env.event()
            ev.fail(KeyError("gone"))
            try:
                yield ev
            except KeyError:
                caught.append(True)

        env.process(proc(env))
        env.run()
        assert caught == [True]

    def test_process_waits_on_another_process_failure(self):
        env = Environment()
        caught = []

        def bad(env):
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def parent(env):
            try:
                yield env.process(bad(env))
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(parent(env))
        env.run()
        assert caught == ["child died"]
