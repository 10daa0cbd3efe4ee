"""Unit + property tests for EqualMax / UnifIncr priority assignment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import RingPlacement
from repro.core import (
    CostModel,
    EqualMaxAssigner,
    FifoAssigner,
    SjfAssigner,
    UnifIncrAssigner,
    bottleneck,
    make_assigner,
    split_task,
)
from repro.core.priorities import EdfAssigner
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def cost_model():
    return CostModel(ServiceTimeModel(overhead=0.0, bandwidth=1000.0))


def make_task(sizes, task_id=0, arrival=0.0):
    ops = tuple(
        Operation(op_id=task_id * 1000 + i, task_id=task_id, key=i * 7, value_size=s)
        for i, s in enumerate(sizes)
    )
    return Task(task_id=task_id, arrival_time=arrival, client_id=0, operations=ops)


def split(task, n_servers=5, rf=2):
    placement = RingPlacement(n_servers=n_servers, replication_factor=rf)
    return split_task(task, placement.partition_of, cost_model())


class TestEqualMax:
    def test_all_ops_share_bottleneck_value(self):
        task = make_task([100, 200, 5000, 50, 75])
        subtasks = split(task)
        priorities = EqualMaxAssigner().assign(task, subtasks)
        bott = bottleneck(subtasks)
        values = {p[0] for p in priorities.values()}
        assert len(values) == 1
        assert values.pop() == pytest.approx(bott.cost)

    def test_short_bottleneck_task_wins(self):
        quick = make_task([10, 10], task_id=0)
        slow = make_task([5000, 5000], task_id=1)
        pq = EqualMaxAssigner().assign(quick, split(quick))
        ps = EqualMaxAssigner().assign(slow, split(slow))
        assert max(pq.values()) < min(ps.values())

    def test_covers_every_op(self):
        task = make_task([100] * 12)
        priorities = EqualMaxAssigner().assign(task, split(task))
        assert set(priorities) == {op.op_id for op in task.operations}

    def test_fifo_tie_break_by_arrival(self):
        early = make_task([100, 100], task_id=0, arrival=0.0)
        late = make_task([100, 100], task_id=1, arrival=5.0)
        pe = EqualMaxAssigner().assign(early, split(early))
        pl = EqualMaxAssigner().assign(late, split(late))
        assert max(pe.values()) < min(pl.values())


class TestUnifIncr:
    def test_bottleneck_ops_have_least_slack(self):
        task = make_task([10, 10, 9000])
        subtasks = split(task)
        priorities = UnifIncrAssigner().assign(task, subtasks)
        bott = bottleneck(subtasks)
        big_op = max(task.operations, key=lambda op: op.value_size)
        if len(bott.operations) == 1 and bott.operations[0] is big_op:
            assert priorities[big_op.op_id][0] == pytest.approx(0.0)
            others = [p for oid, p in priorities.items() if oid != big_op.op_id]
            assert all(p[0] > 0 for p in others)

    def test_slack_nonnegative(self):
        task = make_task([100, 250, 3000, 40, 4096, 7])
        subtasks = split(task)
        priorities = UnifIncrAssigner().assign(task, subtasks)
        assert all(p[0] >= -1e-12 for p in priorities.values())

    def test_larger_ops_more_urgent_within_task(self):
        task = make_task([100, 5000])
        subtasks = split(task)
        priorities = UnifIncrAssigner().assign(task, subtasks)
        small, big = sorted(task.operations, key=lambda op: op.value_size)
        assert priorities[big.op_id][0] <= priorities[small.op_id][0]


class TestOtherAssigners:
    def test_fifo_orders_by_arrival(self):
        t0 = make_task([100], task_id=0, arrival=0.0)
        t1 = make_task([100], task_id=1, arrival=1.0)
        p0 = FifoAssigner().assign(t0, split(t0))
        p1 = FifoAssigner().assign(t1, split(t1))
        assert max(p0.values()) < min(p1.values())

    def test_sjf_orders_by_own_cost(self):
        task = make_task([100, 900])
        priorities = SjfAssigner().assign(task, split(task))
        small, big = sorted(task.operations, key=lambda op: op.value_size)
        assert priorities[small.op_id][0] < priorities[big.op_id][0]

    def test_edf_deadline_is_arrival_plus_bottleneck(self):
        task = make_task([100, 200], arrival=2.0)
        subtasks = split(task)
        priorities = EdfAssigner().assign(task, subtasks)
        deadline = 2.0 + bottleneck(subtasks).cost
        assert all(p[0] == pytest.approx(deadline) for p in priorities.values())


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("equalmax", EqualMaxAssigner),
            ("unifincr", UnifIncrAssigner),
            ("fifo", FifoAssigner),
            ("sjf", SjfAssigner),
            ("edf", EdfAssigner),
            ("EqualMax", EqualMaxAssigner),  # case-insensitive
        ],
    )
    def test_known(self, name, cls):
        assert isinstance(make_assigner(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_assigner("lifo")


sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=100_000), min_size=1, max_size=40
)


@given(sizes_strategy, st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=150, deadline=None)
def test_equalmax_invariant_constant_within_task(sizes, arrival):
    task = make_task(sizes, arrival=arrival)
    subtasks = split(task)
    priorities = EqualMaxAssigner().assign(task, subtasks)
    bott = bottleneck(subtasks)
    assert set(priorities) == {op.op_id for op in task.operations}
    for p in priorities.values():
        assert p[0] == pytest.approx(bott.cost)
        assert p[1] == arrival


@given(sizes_strategy)
@settings(max_examples=150, deadline=None)
def test_unifincr_invariant_slack_bounded(sizes):
    """slack in [0, bottleneck]; ops on the bottleneck sub-task are never
    less urgent than an equal-cost op elsewhere."""
    task = make_task(sizes)
    subtasks = split(task)
    priorities = UnifIncrAssigner().assign(task, subtasks)
    bott = bottleneck(subtasks)
    cm = cost_model()
    for st_ in subtasks:
        for op, op_cost in zip(st_.operations, st_.op_costs):
            slack = priorities[op.op_id][0]
            assert -1e-9 <= slack <= bott.cost + 1e-9
            assert slack == pytest.approx(bott.cost - op_cost)


@given(sizes_strategy, sizes_strategy)
@settings(max_examples=100, deadline=None)
def test_equalmax_is_sjf_on_bottlenecks(sizes_a, sizes_b):
    """Between two tasks, all ops of the shorter-bottleneck task sort
    strictly first (the SJF-on-makespan property)."""
    ta = make_task(sizes_a, task_id=0, arrival=0.0)
    tb = make_task(sizes_b, task_id=1, arrival=0.0)
    sa, sb = split(ta), split(tb)
    ba, bb = bottleneck(sa).cost, bottleneck(sb).cost
    pa = EqualMaxAssigner().assign(ta, sa)
    pb = EqualMaxAssigner().assign(tb, sb)
    if ba < bb:
        assert max(pa.values()) < min(pb.values())
    elif bb < ba:
        assert max(pb.values()) < min(pa.values())
