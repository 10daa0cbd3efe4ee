"""Property-based tests (hypothesis) for the simulation kernel.

Invariants:

* virtual time never decreases, regardless of the delay program;
* the calendar fires same-time timers in sequence order, and fires
  exactly as many timers as were scheduled -- the determinism contract
  the run grid's serial==parallel guarantee rests on;
* a stop timer splits the calendar at its ``(time, sequence)`` slot
  without reordering or counting anything: the runs on either side of it
  fire, together, exactly what one uninterrupted run fires.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment

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


#: Delays of one schedule burst; few distinct values force time collisions.
schedules = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=60)


@given(schedules)
@settings(max_examples=100, deadline=None)
def test_events_processed_equals_scheduled_count(program):
    """Every scheduled timer fires exactly once, none invented."""
    env = Environment()
    fire_counts = {}
    for seq, delay in enumerate(program):
        fire_counts[seq] = 0
        env.call_later(
            delay, lambda s: fire_counts.__setitem__(s, fire_counts[s] + 1), seq
        )
    env.run()
    assert env.events_processed == len(program)
    assert all(count == 1 for count in fire_counts.values())
    assert env.now == max(program)


@given(schedules, schedules)
@settings(max_examples=50, deadline=None)
def test_interleaved_schedules_preserve_relative_sequence(first, second):
    """Sequence numbers are global: two schedule bursts interleave stably."""
    env = Environment()
    fired = []
    for burst_id, burst in enumerate((first, second)):
        for delay in burst:
            env.call_later(delay, fired.append, (delay, burst_id))
    env.run()
    # Within one instant, burst 0's timers all precede burst 1's, because
    # scheduling order assigns monotone sequence ids.
    by_time = {}
    for delay, burst_id in fired:
        by_time.setdefault(delay, []).append(burst_id)
    for burst_ids in by_time.values():
        assert burst_ids == sorted(burst_ids)
    assert env.events_processed == len(first) + len(second)


@given(schedules, st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
@settings(max_examples=100, deadline=None)
def test_run_until_splits_the_calendar_at_its_slot(program, until):
    """The stop timer ``run(until=t)`` arms comes after every entry armed
    before it, so the first run fires exactly the entries due by ``t``."""
    env = Environment()
    fired = []
    for seq, delay in enumerate(program):
        env.call_later(delay, fired.append, (delay, seq))
    env.run(until=until)
    assert fired == sorted((d, s) for s, d in enumerate(program) if d <= until)
    assert env.events_processed == len(fired)
    env.run()
    assert fired == sorted((d, s) for s, d in enumerate(program))
    assert env.events_processed == len(program)


@given(schedules, st.data())
@settings(max_examples=100, deadline=None)
def test_stop_from_a_callback_splits_the_calendar_at_its_slot(program, data):
    """An entry that calls ``stop()`` ends the run after the rest of its
    instant's pre-armed entries; a second run fires the remainder."""
    stopper = data.draw(st.integers(min_value=0, max_value=len(program) - 1))
    env = Environment()
    fired = []

    def fire(seq):
        fired.append((program[seq], seq))
        if seq == stopper:
            env.stop()

    for seq, delay in enumerate(program):
        env.call_later(delay, fire, seq)
    env.run()
    at = program[stopper]
    assert fired == sorted((d, s) for s, d in enumerate(program) if d <= at)
    assert env.now == at
    assert env.events_processed == len(fired)
    env.run()
    assert fired == sorted((d, s) for s, d in enumerate(program))
    assert env.events_processed == len(program)
