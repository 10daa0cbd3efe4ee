"""Differential tests: the calendar against explicit reference models.

The calendar is a heap of ``(time, sequence, Timer)`` entries that
discards lazily-cancelled timers on pop.  These tests pin its observable
contract:

* timers fire in exactly ``(time, sequence)`` lexicographic order, where
  the sequence number is the global scheduling order -- the reference
  model is a stable sort on time;
* cancelled timers are invisible: they neither fire, nor count toward
  ``events_processed``, nor shift any other entry's position;
* an end-of-instant callback (``at_instant_end``) fires after every entry
  of its instant, as a slow reference model (a list of entries and a FIFO
  of end-of-instant work) spells out, under ``run()``, ``step()``,
  ``peek()``, ``cancel_all()`` and ``run(until=t)``;
* one program fires alike through ``run()`` and through ``step()``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.engine import EmptySchedule, Timer

#: (delay, cancelled) programs; few distinct delays force collisions.
programs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.booleans()),
    min_size=1,
    max_size=60,
)


def _schedule_program(env, program, fired):
    """Schedule each entry in order; append (delay, seq) on fire."""
    for seq, (delay, cancelled) in enumerate(program):
        timer = env.call_later(delay, fired.append, (delay, seq))
        if cancelled:
            timer.cancel()


@given(programs)
@settings(max_examples=150, deadline=None)
def test_timers_fire_in_stable_time_order(program):
    env = Environment()
    fired = []
    _schedule_program(env, program, fired)
    env.run()
    live = [(delay, seq) for seq, (delay, cancelled) in enumerate(program) if not cancelled]
    # Stable sort on time == lexicographic sort once the global sequence
    # number is appended.
    assert fired == sorted(live)


@given(programs)
@settings(max_examples=150, deadline=None)
def test_cancelled_timers_do_not_count_or_fire(program):
    env = Environment()
    fired = []
    _schedule_program(env, program, fired)
    env.run()
    expected_live = sum(1 for _, cancelled in program if not cancelled)
    assert len(fired) == expected_live
    assert env.events_processed == expected_live


#: A callback's children, armed when it fires: ``now`` is an entry at the
#: same instant, ``later`` one 0.25 later, ``defer`` end-of-instant work.
children = st.recursive(
    st.just(()),
    lambda inner: st.lists(
        st.tuples(st.sampled_from(["now", "later", "defer"]), inner), max_size=3
    ).map(tuple),
    max_leaves=12,
)
#: Top-level entries: (delay, children), armed before the run.
instant_programs = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0]), children), min_size=1, max_size=12
)


class _Program:
    """A program's callbacks; ``arm(delay, node)`` and ``defer(fn)`` put
    them on a calendar.  Each fired node appends ``(label, now)``."""

    def __init__(self, program):
        self.fired = []
        for index, (delay, kids) in enumerate(program):
            self.arm(delay, ((index,), kids))

    def fire(self, node):
        label, kids = node
        self.fired.append((label, self.now))
        for index, (kind, grandkids) in enumerate(kids):
            child = (label + (index,), grandkids)
            if kind == "now":
                self.arm(0.0, child)
            elif kind == "later":
                self.arm(0.25, child)
            else:
                self.defer(lambda child=child: self.fire(child))


class _Kernel(_Program):
    def __init__(self, program):
        self.env = Environment()
        super().__init__(program)

    @property
    def now(self):
        return self.env.now

    def arm(self, delay, node):
        self.env.call_later(delay, self.fire, node)

    def defer(self, fn):
        self.env.at_instant_end(fn)

    def step(self):
        try:
            self.env.step()
        except EmptySchedule:
            return False
        return True


class _Reference(_Program):
    """The contract spelled out slowly: a list of ``(time, seq, node)``
    entries (``node`` None is a stop) and a FIFO of end-of-instant work,
    which runs whenever no entry of the current instant is left."""

    def __init__(self, program):
        self.now = 0.0
        self.entries = []
        self.deferred = []
        self.seq = 0
        self.events_processed = 0
        super().__init__(program)

    def arm(self, delay, node, at=None):
        self.entries.append((self.now + delay if at is None else at, self.seq, node))
        self.seq += 1

    def defer(self, fn):
        self.deferred.append(fn)

    def peek(self):
        if self.deferred:
            return self.now
        return min(self.entries)[0] if self.entries else float("inf")

    def step(self):
        """One entry or one end-of-instant callback; False when a stop
        fired or nothing is left."""
        if self.deferred and all(time != self.now for time, _, _ in self.entries):
            self.deferred.pop(0)()
            return True
        if not self.entries:
            return False
        entry = min(self.entries, key=lambda e: e[:2])
        self.entries.remove(entry)
        self.now, _, node = entry
        if node is None:
            return False
        self.fire(node)
        self.events_processed += 1
        return True

    def run(self, until=None):
        if until is not None:
            self.arm(0.0, None, at=until)
        while self.step():
            pass


@given(instant_programs)
@settings(max_examples=150, deadline=None)
def test_end_of_instant_callbacks_match_the_reference(program):
    kernel, reference = _Kernel(program), _Reference(program)
    kernel.env.run()
    reference.run()
    assert kernel.fired == reference.fired
    assert kernel.now == reference.now
    # Only the calendar entries count: not the end-of-instant callbacks.
    assert kernel.env.events_processed == reference.events_processed


@given(instant_programs)
@settings(max_examples=100, deadline=None)
def test_step_and_peek_agree_with_the_reference(program):
    """One step is one entry or one end-of-instant callback, and ``peek``
    reports ``now`` while end-of-instant work is armed."""
    kernel, reference = _Kernel(program), _Reference(program)
    while True:
        assert kernel.env.peek() == reference.peek()
        stepped = kernel.step()
        assert stepped == reference.step()
        assert kernel.fired == reference.fired
        assert kernel.now == reference.now
        if not stepped:
            break


@given(instant_programs)
@settings(max_examples=100, deadline=None)
def test_run_and_step_fire_alike(program):
    by_run, by_step = _Kernel(program), _Kernel(program)
    by_run.env.run()
    while by_step.env.peek() != float("inf"):
        by_step.env.step()
    assert by_step.fired == by_run.fired
    assert by_step.env.events_processed == by_run.env.events_processed


@given(instant_programs, st.sampled_from([0.5, 1.0]))
@settings(max_examples=100, deadline=None)
def test_run_until_stops_before_the_instants_deferred_work(program, until):
    """``run(until=t)`` stops at ``t`` with that instant's end-of-instant
    work still armed (the stop timer sorts ahead of it); the next run
    picks it up."""
    kernel, reference = _Kernel(program), _Reference(program)
    kernel.env.run(until=until)
    reference.run(until=until)
    assert kernel.fired == reference.fired
    assert kernel.now == reference.now == until
    assert kernel.env.peek() == reference.peek()
    kernel.env.run()
    reference.run()
    assert kernel.fired == reference.fired
    assert kernel.env.events_processed == reference.events_processed


@given(instant_programs, st.sampled_from([0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_cancel_all_drops_end_of_instant_work(program, until):
    kernel = _Kernel(program)
    kernel.env.run(until=until)
    fired = list(kernel.fired)
    kernel.env.cancel_all()
    assert kernel.env.peek() == float("inf")
    with pytest.raises(EmptySchedule):
        kernel.env.step()
    kernel.env.run()
    assert kernel.fired == fired


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
        env.call_at(1.0, lambda _a: victim.cancel())
        victim = env.call_later(1.0, fired.append, "victim")
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

    def test_call_at_and_call_later_share_sequence_counter(self):
        """Interleaved schedules keep global FIFO within one instant."""
        env = Environment()
        order = []
        for i in range(6):
            if i % 2 == 0:
                env.call_later(1.0, order.append, i)
            else:
                env.call_at(1.0, order.append, i)
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

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.call_later(-0.5, lambda _a: None)
        with pytest.raises(ValueError):
            env.call_at(-1.0, lambda _a: None)
        env.call_later(1.0, lambda _a: None)
        env.run()
        with pytest.raises(ValueError):
            env.call_at(0.5, lambda _a: None)  # now == 1.0: in the past
