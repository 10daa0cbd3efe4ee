"""Unit tests for the stand-alone queue sort key."""

import pytest

from repro.cluster import RequestMessage, RingPlacement
from repro.core import CostModel, make_assigner, split_task
from repro.scheduling import PriorityDiscipline
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def req(op_id=0, size=100, priority=(0.0,), expected=0.0, created=0.0, bottleneck=0.0):
    r = RequestMessage(
        op=Operation(op_id=op_id, task_id=0, key=0, value_size=size),
        task_id=0,
        client_id=0,
        partition=0,
        priority=priority,
        expected_service=expected,
        bottleneck_cost=bottleneck,
    )
    r.created_at = created
    return r


def assigned_keys(assigner_name, sizes, task_id=0, arrival=0.0):
    """The server keys of one task's requests: SJF and EDF reach a server
    as the client-assigned priority tuple under :class:`PriorityDiscipline`
    (there is no per-algorithm discipline), in either realm."""
    ops = tuple(
        Operation(op_id=task_id * 100 + i, task_id=task_id, key=7 * i, value_size=s)
        for i, s in enumerate(sizes)
    )
    task = Task(task_id=task_id, arrival_time=arrival, client_id=0, operations=ops)
    subtasks = split_task(
        task,
        RingPlacement(n_servers=5, replication_factor=2).partition_of,
        CostModel(ServiceTimeModel(overhead=0.0, bandwidth=1000.0)),
    )
    priorities = make_assigner(assigner_name).assign(task, subtasks)
    discipline = PriorityDiscipline()
    return [
        discipline.key(req(op_id=op.op_id, priority=priorities[op.op_id]), 0.0)
        for op in ops
    ]


class TestSjf:
    def test_orders_by_forecast(self):
        short, long = assigned_keys("sjf", [100, 2000])
        assert short < long


class TestEdf:
    def test_orders_by_deadline(self):
        (early,) = assigned_keys("edf", [1000], task_id=0)
        (late,) = assigned_keys("edf", [5000], task_id=1)
        assert early < late

    def test_older_task_with_same_bottleneck_wins(self):
        (old,) = assigned_keys("edf", [2000], task_id=0, arrival=0.0)
        (new,) = assigned_keys("edf", [2000], task_id=1, arrival=1.0)
        assert old < new


class TestPriority:
    def test_uses_request_priority_tuple(self):
        d = PriorityDiscipline()
        assert d.key(req(priority=(1.0, 0.0, 0.0)), 0.0) < d.key(
            req(priority=(2.0, 0.0, 0.0)), 0.0
        )

    def test_lexicographic_tie_break(self):
        d = PriorityDiscipline()
        assert d.key(req(priority=(1.0, 0.5, 0.0)), 0.0) < d.key(
            req(priority=(1.0, 0.7, 0.0)), 0.0
        )
