"""Property-based tests (hypothesis) for the simulation kernel.

Invariants:

* virtual time never decreases, regardless of the timeout program;
* the event calendar fires same-time events in (priority, sequence)
  order, and processes exactly as many events as were scheduled -- the
  determinism contract the parallel executor's serial==parallel guarantee
  rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.events import Event, LOW, NORMAL, URGENT

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30
)


@given(delays)
@settings(max_examples=100, deadline=None)
def test_clock_monotonic_under_arbitrary_timeouts(delay_list):
    env = Environment()
    observed = []

    def proc(env, ds):
        for d in ds:
            yield env.timeout(d)
            observed.append(env.now)

    # Several interleaved processes with rotations of the same list.
    for shift in range(3):
        rotated = delay_list[shift:] + delay_list[:shift]
        env.process(proc(env, rotated))
    env.run()
    assert observed == sorted(observed)


def _schedule_triggered(env, delay, priority):
    """Schedule a pre-triggered bare event (the way ``run(until=t)`` does)."""
    event = Event(env)
    event._ok = True
    event._value = None
    env.schedule(event, delay=delay, priority=priority)
    return event


#: (delay, priority) programs; few distinct delays to force time collisions.
schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([URGENT, NORMAL, LOW]),
    ),
    min_size=1,
    max_size=60,
)


@given(schedules)
@settings(max_examples=100, deadline=None)
def test_same_time_events_fire_in_priority_then_sequence_order(program):
    """The calendar's tie-break is (time, priority, sequence) -- exactly."""
    env = Environment()
    fired = []
    for seq, (delay, priority) in enumerate(program):
        event = _schedule_triggered(env, delay, priority)
        event.callbacks.append(
            lambda _e, rec=(delay, priority, seq): fired.append(rec)
        )
    env.run()
    assert fired == sorted(fired)  # (time, priority, sequence) lexicographic
    assert env.now == max(delay for delay, _ in program)


@given(schedules)
@settings(max_examples=100, deadline=None)
def test_events_processed_equals_scheduled_count(program):
    """Every scheduled event is processed exactly once, none invented."""
    env = Environment()
    fire_counts = {}
    for seq, (delay, priority) in enumerate(program):
        event = _schedule_triggered(env, delay, priority)
        fire_counts[seq] = 0
        event.callbacks.append(
            lambda _e, s=seq: fire_counts.__setitem__(s, fire_counts[s] + 1)
        )
    env.run()
    assert env.events_processed == len(program)
    assert all(count == 1 for count in fire_counts.values())


@given(schedules, schedules)
@settings(max_examples=50, deadline=None)
def test_interleaved_schedules_preserve_relative_sequence(first, second):
    """Sequence numbers are global: two schedule bursts interleave stably."""
    env = Environment()
    fired = []
    for burst_id, burst in enumerate((first, second)):
        for delay, priority in burst:
            event = _schedule_triggered(env, delay, priority)
            event.callbacks.append(
                lambda _e, rec=(delay, priority, burst_id): fired.append(rec)
            )
    env.run()
    # Within one (time, priority) class, burst 0's events all precede
    # burst 1's, because scheduling order assigns monotone sequence ids.
    by_class = {}
    for delay, priority, burst_id in fired:
        by_class.setdefault((delay, priority), []).append(burst_id)
    for burst_ids in by_class.values():
        assert burst_ids == sorted(burst_ids)
    assert env.events_processed == len(first) + len(second)
