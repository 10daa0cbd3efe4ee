"""The open-loop feeder, on the *sim* ``Environment`` as its ``Clock``.

``Feeder`` is a clock callback, so the simulation's calendar can drive it:
deterministic, no wall clock.  A "late" wakeup is produced the way a busy
event loop produces one -- the submit callback burns model time.
"""

import asyncio
import types

import pytest

from repro.core.clock import WallClock
from repro.harness.runner import Feeder
from repro.sim import Environment


class SlowEnvironment(Environment):
    """An ``Environment`` whose clock a test can push forward by hand, as a
    callback that takes a while does to a wall clock."""

    skew = 0.0

    @property
    def now(self):
        return Environment.now.fget(self) + self.skew


def fake_run(arrivals, submit, arrival_scale=lambda: 1.0):
    """The slice of ``RunAssembly`` a feeder touches, over given arrival times."""
    tasks = iter(
        types.SimpleNamespace(task_id=i, arrival_time=at) for i, at in enumerate(arrivals)
    )
    return types.SimpleNamespace(
        generator=types.SimpleNamespace(next_task=lambda: next(tasks)),
        faults=types.SimpleNamespace(arrival_scale=arrival_scale),
        submit=submit,
    )


def feed(arrivals, env=None, on_submit=None, **run_options):
    env = env if env is not None else Environment()
    submitted = []  # (task id, model time of the submit)

    def submit(task):
        submitted.append((task.task_id, env.now))
        if on_submit is not None:
            on_submit(task)

    feeder = Feeder(env, fake_run(arrivals, submit, **run_options), len(arrivals))
    env.call_later(0.0, feeder.step)
    env.run()
    return feeder, submitted


class TestSchedule:
    def test_each_task_is_submitted_at_its_own_due_time(self):
        arrivals = [0.5, 1.0, 1.25, 4.0]
        feeder, submitted = feed(arrivals)
        assert submitted == list(enumerate(arrivals))
        assert (feeder.lag_total, feeder.lag_max) == (0.0, 0.0)
        assert feeder.left == 0 and feeder.task is None

    def test_a_late_wakeup_submits_its_whole_burst_in_one_step(self):
        """Task 0's submit takes 2.0 model seconds: tasks 1-3 fell due
        meanwhile and leave in the same step, task 4 gets its own wakeup."""
        env = SlowEnvironment()
        steps = []

        def slow_first(task):
            steps.append(env.events_processed)
            if task.task_id == 0:
                env.skew += 2.0

        feeder, submitted = feed([1.0, 1.5, 2.0, 2.5, 9.0], env, slow_first)
        assert [at for _, at in submitted] == [1.0, 3.0, 3.0, 3.0, 9.0]
        assert len(set(steps[:4])) == 1 and steps[4] > steps[0]  # one step, then one
        # Lateness against the *trace's* due times: 1.5, 1.0, 0.5 late.
        assert feeder.lag_total == pytest.approx(3.0)
        assert feeder.lag_max == pytest.approx(1.5)

    def test_deadlines_are_absolute_and_do_not_drift(self):
        """Every submit overshoots by 0.1; a feeder that slept a *gap* after
        each submit would drift 0.1 further behind per task."""
        env = SlowEnvironment()

        def overshoot(_task):
            env.skew += 0.1

        arrivals = [float(i) for i in range(1, 21)]
        feeder, submitted = feed(arrivals, env, overshoot)
        lags = [at - due for (_, at), due in zip(submitted, arrivals)]
        # The clock runs 0.1 ahead after every submit, so each wakeup lands
        # exactly on its due time: no accumulated lag at all.
        assert max(lags) == pytest.approx(0.0, abs=1e-9)
        assert feeder.lag_max == pytest.approx(0.0, abs=1e-9)

    def test_the_arrival_scale_is_read_when_a_task_is_drawn(self):
        """A flash crowd compresses the gaps fixed while it is on -- each right
        after its predecessor's submit, which is when a task is drawn."""
        scale = {"now": 1.0}

        def submit_hook(task):
            scale["now"] = 2.0 if task.task_id >= 1 else 1.0

        _, submitted = feed(
            [1.0, 2.0, 3.0, 4.0], on_submit=submit_hook, arrival_scale=lambda: scale["now"]
        )
        # Task 1's due time was fixed (gap 1.0) before the crowd; 2 and 3 under it.
        assert [at for _, at in submitted] == [1.0, 2.0, 2.5, 3.0]

    def test_one_task_is_drawn_ahead_right_after_its_predecessors_submit(self):
        order = []
        run = fake_run(
            [1.0, 2.0, 2.0, 5.0], lambda task: order.append(f"submit {task.task_id}")
        )
        draw = run.generator.next_task
        run.generator.next_task = lambda: (order.append("draw"), draw())[1]
        env = Environment()
        env.call_later(0.0, Feeder(env, run, 4).step)
        env.run()
        assert order == [
            "draw", "submit 0", "draw", "submit 1", "draw", "submit 2", "draw", "submit 3",
        ]  # fmt: skip


class TestErrors:
    def test_a_raising_generator_raises_out_of_the_simulation(self):
        def boom():
            raise RuntimeError("trace exhausted")

        env = Environment()
        run = fake_run([], lambda task: None)
        run.generator.next_task = boom
        env.call_later(0.0, Feeder(env, run, 3).step)
        with pytest.raises(RuntimeError, match="trace exhausted"):
            env.run()

    def test_a_raising_generator_reaches_the_wall_clocks_on_error(self):
        """On a wall clock the same exception takes the funnel every other
        timer's does -- the one ``run_live`` watches."""

        async def scenario():
            clock = WallClock(scale=0.001)
            seen = []
            clock.on_error(seen.append)
            calls = []

            def next_task():
                calls.append(clock.now)
                if len(calls) == 2:
                    raise RuntimeError("draw failed")
                return types.SimpleNamespace(task_id=0, arrival_time=1.0)

            run = fake_run([], lambda task: None)
            run.generator.next_task = next_task
            clock.call_later(0.0, Feeder(clock, run, 5).step)
            deadline = asyncio.get_running_loop().time() + 5.0
            while not seen and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.001)
            armed = len(clock._armed)
            clock.cancel_all()
            return seen, armed

        seen, armed = asyncio.run(scenario())
        assert [str(error) for error in seen] == ["draw failed"]
        assert armed == 0  # a failed step does not re-arm itself
