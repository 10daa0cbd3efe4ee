"""Unit tests for wire-message invariants and derived accessors."""

import pytest

from repro.cluster import RequestMessage, TaskCompletion
from repro.workload.tasks import Operation, Task


def req():
    return RequestMessage(
        op=Operation(op_id=0, task_id=0, key=0, value_size=10),
        task_id=0,
        client_id=0,
        partition=0,
    )


class TestRequestMessage:
    def test_derived_times_require_progress(self):
        r = req()
        with pytest.raises(ValueError):
            _ = r.queue_wait
        with pytest.raises(ValueError):
            _ = r.service_time

    def test_derived_times(self):
        r = req()
        r.created_at = 0.0
        r.dispatched_at = 0.1
        r.enqueued_at = 0.2
        r.service_start_at = 0.5
        r.completed_at = 0.9
        assert r.queue_wait == pytest.approx(0.3)
        assert r.service_time == pytest.approx(0.4)

    def test_default_priority_is_orderable(self):
        assert req().priority < (1.0,)


class TestTaskCompletion:
    def test_latency(self):
        op = Operation(op_id=0, task_id=3, key=0, value_size=10)
        task = Task(task_id=3, arrival_time=1.5, client_id=0, operations=(op,))
        completion = TaskCompletion(task=task, completed_at=2.25)
        assert completion.latency == pytest.approx(0.75)
