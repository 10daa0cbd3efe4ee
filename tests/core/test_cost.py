"""Unit tests for the cost model and task splitting."""

import pytest

from repro.cluster import RingPlacement
from repro.core import CostModel, bottleneck, split_task
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def model():
    # 1 byte == 1 ms, no overhead: costs are easy to read.
    return CostModel(ServiceTimeModel(overhead=0.0, bandwidth=1000.0))


def task_with(keys_sizes, task_id=0, arrival=0.0):
    ops = tuple(
        Operation(op_id=i, task_id=task_id, key=k, value_size=s)
        for i, (k, s) in enumerate(keys_sizes)
    )
    return Task(task_id=task_id, arrival_time=arrival, client_id=0, operations=ops)


class TestCostModel:
    def test_op_cost_from_size(self):
        m = model()
        op = Operation(op_id=0, task_id=0, key=0, value_size=500)
        assert m.op_cost(op) == pytest.approx(0.5)

    def test_subtask_cost_sums(self):
        m = model()
        ops = [
            Operation(op_id=i, task_id=0, key=i, value_size=100) for i in range(3)
        ]
        assert m.subtask_cost(ops) == pytest.approx(0.3)


class TestSplitTask:
    def test_one_subtask_per_replica_group(self):
        placement = RingPlacement(n_servers=4, replication_factor=2)
        task = task_with([(k, 100) for k in range(40)])
        subtasks = split_task(task, placement.partition_of, model())
        partitions = [st.partition for st in subtasks]
        assert partitions == sorted(set(partitions))  # distinct & ordered
        assert sum(st.size for st in subtasks) == 40

    def test_ops_grouped_with_their_partition(self):
        placement = RingPlacement(n_servers=4, replication_factor=2)
        task = task_with([(k, 100) for k in range(20)])
        for st in split_task(task, placement.partition_of, model()):
            for op in st.operations:
                assert placement.partition_of(op.key) == st.partition

    def test_costs_aligned(self):
        placement = RingPlacement(n_servers=3, replication_factor=1)
        task = task_with([(0, 100), (1, 300), (2, 500)])
        for st in split_task(task, placement.partition_of, model()):
            assert st.cost == pytest.approx(sum(st.op_costs))
            assert len(st.op_costs) == len(st.operations)

    def test_single_op_task(self):
        placement = RingPlacement(n_servers=3, replication_factor=1)
        subtasks = split_task(task_with([(7, 200)]), placement.partition_of, model())
        assert len(subtasks) == 1
        assert subtasks[0].cost == pytest.approx(0.2)


class TestBottleneck:
    def test_picks_costliest(self):
        placement = RingPlacement(n_servers=9, replication_factor=3)
        # Put a very large value on one key: its group must be bottleneck.
        task = task_with([(k, 10) for k in range(8)] + [(100, 100_000)])
        subtasks = split_task(task, placement.partition_of, model())
        bott = bottleneck(subtasks)
        assert any(op.value_size == 100_000 for op in bott.operations)
        assert all(st.cost <= bott.cost for st in subtasks)

    def test_tie_breaks_to_first(self):
        placement = RingPlacement(n_servers=2, replication_factor=1)
        task = task_with([(0, 100), (1, 100)])
        subtasks = split_task(task, placement.partition_of, model())
        if len(subtasks) == 2 and subtasks[0].cost == subtasks[1].cost:
            assert bottleneck(subtasks) is subtasks[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bottleneck([])
