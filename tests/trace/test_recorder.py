"""Unit tests for the sampling span recorder."""

import pytest

from repro.cluster.messages import RequestMessage, TaskCompletion
from repro.trace import TraceRecorder, is_sampled, trace_hash
from repro.trace.recorder import _SCALE
from repro.workload.tasks import Operation, Task


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def make_request(task_id, key=1, **overrides):
    base = dict(
        op=Operation(op_id=key, task_id=task_id, key=key, value_size=100),
        task_id=task_id, client_id=0, partition=0, server_id=1,
        created_at=1.0, dispatched_at=1.1, enqueued_at=1.2,
        service_start_at=1.3, completed_at=1.4,
    )
    base.update(overrides)
    return RequestMessage(**base)


def make_completion(task_id, completed_at=2.0, arrival_time=0.5):
    task = Task(
        task_id=task_id, arrival_time=arrival_time, client_id=0,
        operations=(
            Operation(op_id=0, task_id=task_id, key=1, value_size=100),
        ),
    )
    return TaskCompletion(task=task, completed_at=completed_at)


class TestSampling:
    def test_hash_is_deterministic(self):
        assert trace_hash(123) == trace_hash(123)
        assert trace_hash(123) != trace_hash(124)

    def test_rate_zero_samples_nothing(self):
        assert not any(is_sampled(i, 0.0) for i in range(1000))

    def test_rate_one_samples_everything(self):
        assert all(is_sampled(i, 1.0) for i in range(1000))

    def test_sampled_fraction_tracks_the_rate(self):
        n = 20_000
        hits = sum(is_sampled(i, 0.1) for i in range(n))
        # Binomial(n, 0.1): 5 sigma ~ 0.0106.
        assert abs(hits / n - 0.1) < 0.011

    def test_lower_rate_set_is_a_subset_of_higher(self):
        low = {i for i in range(5000) if is_sampled(i, 0.05)}
        high = {i for i in range(5000) if is_sampled(i, 0.25)}
        assert low <= high

    def test_sampling_matches_the_hash_threshold(self):
        for task_id in range(200):
            expected = trace_hash(task_id) / _SCALE < 0.3
            assert is_sampled(task_id, 0.3) == expected


class TestTraceRecorder:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="sample"):
            TraceRecorder(FakeClock(), sample=1.5)

    def test_warmup_tasks_are_never_sampled(self):
        recorder = TraceRecorder(FakeClock(), sample=1.0, warmup_tasks=10)
        assert not recorder.sampled(9)
        assert recorder.sampled(10)
        assert recorder.wire_trace_id(make_request(9)) is None
        assert recorder.wire_trace_id(make_request(10)) == trace_hash(10)

    def test_records_a_span_tree_for_a_sampled_task(self):
        clock = FakeClock(1.45)
        recorder = TraceRecorder(clock, sample=1.0)
        recorder.observe_request(make_request(7, key=11))
        clock.now = 1.47
        recorder.observe_request(make_request(7, key=12, partition=2))
        recorder.on_complete(make_completion(7, completed_at=1.47))
        (trace,) = recorder.traces
        assert trace.task_id == 7
        assert trace.trace_id == trace_hash(7)
        assert trace.start == 0.5
        assert trace.end == 1.47
        assert [s.key for s in trace.spans] == [11, 12]
        assert trace.spans[0].end == 1.45  # stamped at observation time
        assert trace.spans[1].partition == 2

    def test_unsampled_tasks_leave_no_record(self):
        recorder = TraceRecorder(FakeClock(), sample=0.0)
        recorder.observe_request(make_request(1))
        recorder.on_complete(make_completion(1))
        assert recorder.traces == []
        assert recorder.extras()["trace_sampled"] == 0.0

    def test_keeps_every_sampled_trace_in_completion_order(self):
        recorder = TraceRecorder(FakeClock(), sample=1.0)
        for task_id in range(4):
            recorder.observe_request(make_request(task_id))
            recorder.on_complete(make_completion(task_id))
        traces = recorder.traces
        assert [t.task_id for t in traces] == [0, 1, 2, 3]
        extras = recorder.extras()
        assert extras["trace_sampled"] == 4.0
        assert extras["trace_spans"] == 4.0

    def test_extras_are_floats_with_stable_keys(self):
        extras = TraceRecorder(FakeClock(), sample=0.5).extras()
        assert set(extras) == {"trace_sampled", "trace_spans"}
        assert all(isinstance(v, float) for v in extras.values())

    def test_hedge_flag_propagates_to_the_span(self):
        recorder = TraceRecorder(FakeClock(), sample=1.0)
        recorder.observe_request(make_request(3, hedge=True))
        recorder.on_complete(make_completion(3))
        (trace,) = recorder.traces
        assert trace.spans[0].hedge
        assert "hedge_wait" in trace.spans[0].segments()
