"""Differential tests: the overhauled calendar vs the old calendar's order.

The pre-overhaul engine popped ``(time, priority, sequence, Event)`` heap
tuples; the overhauled one mixes Events with bare-callback ``Timer``
entries and discards lazily-cancelled timers on pop.  These tests pin
that the observable contract did not move:

* mixed Event/Timer programs fire in exactly the old calendar's
  ``(time, priority, sequence)`` lexicographic order, where the sequence
  number is the global scheduling order -- the reference model is a
  stable sort, which is precisely what the old heap delivered;
* cancelled timers are invisible: they neither fire, nor count toward
  ``events_processed``, nor shift any other entry's position;
* converting a Timeout-plus-callback call site to ``call_later`` (the
  network/flush fast path migration) preserves interleaving exactly;
* an end-of-instant callback (``at_instant_end``) fires exactly where a
  ``call_later(0, ..., LOW)`` entry would, under ``run()``, ``step()``,
  ``peek()``, ``cancel_all()`` and ``run(until=t)``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.engine import EmptySchedule, Timer
from repro.sim.events import Event, NORMAL, URGENT

#: A priority after NORMAL: the calendar orders any int priority, and the
#: end-of-instant callbacks are pinned against entries at this one.
LOW = NORMAL + 1

#: (delay, priority, kind) programs; few distinct delays force collisions.
#: kind: 0 = triggered Event, 1 = Timer, 2 = Timer cancelled before run.
programs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([URGENT, NORMAL, LOW]),
        st.sampled_from([0, 1, 2]),
    ),
    min_size=1,
    max_size=60,
)


def _schedule_program(env, program, fired):
    """Schedule each entry in order; append (delay, prio, seq) on fire."""
    timers = []
    for seq, (delay, priority, kind) in enumerate(program):
        record = (delay, priority, seq)
        if kind == 0:
            event = Event(env)
            event._ok = True
            event._value = None
            env.schedule(event, delay=delay, priority=priority)
            event.callbacks.append(lambda _e, rec=record: fired.append(rec))
        else:
            timer = env.call_later(
                delay, lambda rec: fired.append(rec), record, priority=priority
            )
            if kind == 2:
                timer.cancel()
            timers.append(timer)
    return timers


@given(programs)
@settings(max_examples=150, deadline=None)
def test_mixed_entries_fire_in_old_calendar_order(program):
    """Events and timers share one (time, priority, sequence) order."""
    env = Environment()
    fired = []
    _schedule_program(env, program, fired)
    env.run()
    live = [
        (delay, priority, seq)
        for seq, (delay, priority, kind) in enumerate(program)
        if kind != 2
    ]
    # The old calendar == stable sort on (time, priority), i.e. plain
    # lexicographic sort once the global sequence number is appended.
    assert fired == sorted(live)


@given(programs)
@settings(max_examples=150, deadline=None)
def test_cancelled_timers_do_not_count_or_fire(program):
    env = Environment()
    fired = []
    _schedule_program(env, program, fired)
    env.run()
    expected_live = sum(1 for _, _, kind in program if kind != 2)
    assert len(fired) == expected_live
    assert env.events_processed == expected_live


@given(programs)
@settings(max_examples=75, deadline=None)
def test_timer_fast_path_is_order_identical_to_timeout_callbacks(program):
    """The network-migration refactor, as a property: replacing every
    Timeout-plus-callback with call_later leaves the fire order unchanged."""
    fired_events = []
    env_a = Environment()
    for seq, (delay, priority, _kind) in enumerate(program):
        event = env_a.timeout(delay)
        # timeout() always schedules at NORMAL; mirror that on both sides
        # and keep the program's priority out of this comparison.
        event.callbacks.append(
            lambda _e, rec=(delay, seq): fired_events.append(rec)
        )
    env_a.run()

    fired_timers = []
    env_b = Environment()
    for seq, (delay, priority, _kind) in enumerate(program):
        env_b.call_later(delay, fired_timers.append, (delay, seq))
    env_b.run()

    assert fired_events == fired_timers
    assert env_a.events_processed == env_b.events_processed


#: A callback's children, armed when it fires: ``now`` is a NORMAL entry at
#: the same instant, ``later`` one 0.25 later, ``defer`` end-of-instant work.
children = st.recursive(
    st.just(()),
    lambda inner: st.lists(
        st.tuples(st.sampled_from(["now", "later", "defer"]), inner), max_size=3
    ).map(tuple),
    max_leaves=12,
)
#: Top-level entries: (delay, priority, children), armed before the run.
instant_programs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([URGENT, NORMAL]),
        children,
    ),
    min_size=1,
    max_size=12,
)


class _InstantProgram:
    """One program on one environment; ``deferred`` picks how end-of-instant
    work is armed: as the engine's callbacks, or as LOW calendar entries."""

    def __init__(self, program, deferred):
        self.env = Environment()
        self.fired = []
        self.deferred = deferred
        for index, (delay, priority, kids) in enumerate(program):
            self.env.call_later(delay, self._fire, ((index,), kids), priority)

    def _fire(self, node):
        label, kids = node
        self.fired.append((label, self.env.now))
        for index, (kind, grandkids) in enumerate(kids):
            child = (label + (index,), grandkids)
            if kind == "now":
                self.env.call_later(0.0, self._fire, child)
            elif kind == "later":
                self.env.call_later(0.25, self._fire, child)
            elif self.deferred:
                self.env.at_instant_end(lambda child=child: self._fire(child))
            else:
                self.env.call_later(0.0, self._fire, child, LOW)

    def step(self):
        try:
            self.env.step()
        except EmptySchedule:
            return False
        return True


def _pair(program):
    return _InstantProgram(program, deferred=True), _InstantProgram(program, False)


@given(instant_programs)
@settings(max_examples=150, deadline=None)
def test_end_of_instant_callbacks_fire_where_low_entries_did(program):
    new, old = _pair(program)
    new.env.run()
    old.env.run()
    assert new.fired == old.fired
    assert new.env.now == old.env.now
    # Only the calendar entries count: not the end-of-instant callbacks.
    defers = sum(1 for label, _ in old.fired if _armed_by_defer(program, label))
    assert new.env.events_processed == old.env.events_processed - defers


def _armed_by_defer(program, label):
    kids = program[label[0]][2]
    kind = None
    for index in label[1:]:
        kind, kids = kids[index]
    return kind == "defer"


@given(instant_programs)
@settings(max_examples=100, deadline=None)
def test_step_and_peek_agree_with_low_entries(program):
    """One step is one entry or one end-of-instant callback, and ``peek``
    reports ``now`` while end-of-instant work is armed."""
    new, old = _pair(program)
    while True:
        assert new.env.peek() == old.env.peek()
        stepped = new.step()
        assert stepped == old.step()
        assert new.fired == old.fired
        assert new.env.now == old.env.now
        if not stepped:
            break


@given(instant_programs, st.sampled_from([0.5, 1.0]))
@settings(max_examples=100, deadline=None)
def test_run_until_stops_before_the_instants_deferred_work(program, until):
    """``run(until=t)`` stops at ``t`` with that instant's end-of-instant
    work still armed (a LOW entry sorts after the until-entry too); the
    next run picks it up."""
    new, old = _pair(program)
    new.env.run(until=until)
    old.env.run(until=until)
    assert new.fired == old.fired
    assert new.env.now == old.env.now == until
    assert new.env.peek() == old.env.peek()
    new.env.run()
    old.env.run()
    assert new.fired == old.fired


@given(instant_programs, st.sampled_from([0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_cancel_all_drops_end_of_instant_work(program, until):
    new, old = _pair(program)
    new.env.run(until=until)
    old.env.run(until=until)
    new.env.cancel_all()
    old.env.cancel_all()
    assert new.env.peek() == old.env.peek() == float("inf")
    with pytest.raises(EmptySchedule):
        new.env.step()
    new.env.run()
    old.env.run()
    assert new.fired == old.fired


def test_deferred_work_armed_at_an_instant_runs_before_the_clock_moves():
    env = Environment()
    order = []
    env.call_later(1.0, lambda _a: order.append(("later", env.now)))
    env.at_instant_end(lambda: order.append(("deferred", env.now)))
    env.call_later(0.0, lambda _a: order.append(("now", env.now)))
    env.run()
    assert order == [("now", 0.0), ("deferred", 0.0), ("later", 1.0)]
    assert env.events_processed == 2


class TestLazyCancellation:
    def test_cancel_before_fire_skips_silently(self):
        env = Environment()
        fired = []
        timer = env.call_later(1.0, fired.append, "x")
        env.call_later(2.0, fired.append, "y")
        timer.cancel()
        env.run()
        assert fired == ["y"]
        assert env.events_processed == 1

    def test_cancel_from_same_instant_callback(self):
        """A callback may cancel a later same-time timer: lazy discard."""
        env = Environment()
        fired = []
        victim = env.call_later(1.0, fired.append, "victim")
        env.call_at(1.0, lambda _a: victim.cancel(), priority=URGENT)
        env.run()
        assert fired == []
        assert env.events_processed == 1  # only the canceller fired

    def test_cancel_after_fire_is_noop(self):
        env = Environment()
        fired = []
        timer = env.call_later(0.5, fired.append, "x")
        env.run()
        timer.cancel()  # must not raise
        assert fired == ["x"]

    def test_cancelled_entry_stays_on_heap_until_popped(self):
        """Lazy cancellation never mutates the heap in place."""
        env = Environment()
        timer = env.call_later(5.0, lambda _a: None)
        timer.cancel()
        assert env.peek() == 5.0  # documented: peek may see a dead entry
        env.run()
        assert env.peek() == float("inf")
        assert env.events_processed == 0
        # Fully invisible: the clock must not advance to a dead deadline.
        assert env.now == 0.0

    def test_cancelled_timer_does_not_advance_clock(self):
        """The clock stops at the last *live* entry, in run() and step()."""
        env = Environment()
        fired = []
        env.call_later(1.0, fired.append, "live")
        dead = env.call_later(9.0, fired.append, "dead")
        dead.cancel()
        env.run()
        assert fired == ["live"]
        assert env.now == 1.0

        env2 = Environment()
        dead2 = env2.call_later(7.0, lambda _a: None)
        dead2.cancel()
        env2.call_later(8.0, lambda _a: None)
        env2.step()  # discards the dead entry, fires the 8.0 one
        assert env2.now == 8.0

    def test_events_processed_is_live_mid_run(self):
        """Callbacks observe the running count, same as under step()."""
        env = Environment()
        seen = []
        for delay in (1.0, 2.0, 3.0):
            env.call_later(delay, lambda _a: seen.append(env.events_processed))
        env.run()
        # Each callback runs before its own entry is counted, and sees
        # every earlier entry already counted -- exactly step() semantics.
        assert seen == [0, 1, 2]
        assert env.events_processed == 3

    def test_step_skips_cancelled_entries(self):
        """The single-step API agrees with the inlined run loop."""
        env = Environment()
        fired = []
        dead = env.call_later(1.0, fired.append, "dead")
        env.call_later(2.0, fired.append, "live")
        dead.cancel()
        env.step()  # discards the cancelled timer, fires the live one
        assert fired == ["live"]
        assert env.events_processed == 1

    def test_timer_repr_states_armed_and_cancelled(self):
        env = Environment()
        timer = env.call_later(1.0, lambda _a: None)
        assert "armed" in repr(timer)
        timer.cancel()
        assert "cancelled" in repr(timer)


class TestTimerApi:
    def test_call_at_absolute_time(self):
        env = Environment()
        seen = []
        env.call_at(3.25, seen.append, "abs")
        env.run()
        assert seen == ["abs"]
        assert env.now == 3.25

    def test_timer_and_event_share_sequence_counter(self):
        """Interleaved schedules keep global FIFO within a (time, prio)."""
        env = Environment()
        order = []
        for i in range(6):
            if i % 2 == 0:
                env.call_later(1.0, order.append, i)
            else:
                event = Event(env)
                event._ok = True
                event._value = None
                env.schedule(event, delay=1.0)
                event.callbacks.append(lambda _e, i=i: order.append(i))
        env.run()
        assert order == list(range(6))

    def test_timer_failure_propagates(self):
        env = Environment()

        def boom(_arg):
            raise RuntimeError("timer exploded")

        env.call_later(1.0, boom)
        try:
            env.run()
        except RuntimeError as exc:
            assert "timer exploded" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("timer exception was swallowed")

    def test_isinstance_check(self):
        env = Environment()
        timer = env.call_later(1.0, lambda _a: None)
        assert isinstance(timer, Timer)

    def test_negative_delay_rejected_like_timeout(self):
        """The Timer fast path keeps Timeout's scheduling contract."""
        import pytest

        env = Environment()
        with pytest.raises(ValueError):
            env.call_later(-0.5, lambda _a: None)
        with pytest.raises(ValueError):
            env.call_at(-1.0, lambda _a: None)
        env.call_later(1.0, lambda _a: None)
        env.run()
        with pytest.raises(ValueError):
            env.call_at(0.5, lambda _a: None)  # now == 1.0: in the past
