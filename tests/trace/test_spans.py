"""Unit tests for span trees and their segment decomposition."""

import math

import pytest

from repro.trace import SEGMENT_KINDS, Span, TaskTrace


def make_span(**overrides):
    base = dict(
        server=2, partition=1, key=42, hedge=False,
        created=1.0, dispatched=1.2, enqueued=1.25,
        service_start=1.5, completed=1.9, end=1.95,
    )
    base.update(overrides)
    return Span(**base)


class TestSpanSegments:
    def test_segments_telescope_to_duration(self):
        span = make_span()
        assert math.isclose(
            sum(span.segments().values()), span.duration, rel_tol=1e-12
        )

    def test_segment_values(self):
        segments = make_span().segments()
        assert segments["credit_wait"] == pytest.approx(0.2)
        assert segments["network_out"] == pytest.approx(0.05)
        assert segments["queue_wait"] == pytest.approx(0.25)
        assert segments["service"] == pytest.approx(0.4)
        assert segments["network_in"] == pytest.approx(0.05)

    def test_hedge_span_reports_hedge_wait_not_credit_wait(self):
        segments = make_span(hedge=True).segments()
        assert "hedge_wait" in segments
        assert "credit_wait" not in segments
        assert segments["hedge_wait"] == pytest.approx(0.2)

    def test_every_segment_kind_is_declared(self):
        for hedge in (False, True):
            for kind in make_span(hedge=hedge).segments():
                assert kind in SEGMENT_KINDS

    def test_dict_roundtrip(self):
        span = make_span(hedge=True)
        assert Span.from_dict(span.to_dict()) == span


class TestTaskTrace:
    def make_trace(self):
        fast = make_span(end=1.6, completed=1.55)
        slow = make_span(
            server=0, partition=0, created=1.1, dispatched=1.3,
            enqueued=1.35, service_start=2.0, completed=2.4, end=2.45,
        )
        return TaskTrace(
            trace_id=99, task_id=7, client_id=3,
            start=0.9, end=2.45, spans=[fast, slow],
        )

    def test_latency_is_end_minus_start(self):
        assert self.make_trace().latency == pytest.approx(1.55)

    def test_critical_span_is_the_last_to_finish(self):
        trace = self.make_trace()
        assert trace.critical_span().partition == 0

    def test_critical_path_sums_exactly_to_latency(self):
        trace = self.make_trace()
        total = sum(value for _, value, _ in trace.critical_path())
        assert math.isclose(total, trace.latency, rel_tol=1e-12)

    def test_critical_path_starts_with_sched_lag(self):
        kind, value, span = self.make_trace().critical_path()[0]
        assert kind == "sched_lag"
        assert value == pytest.approx(0.2)  # 1.1 - 0.9
        assert span.partition == 0

    def test_critical_path_kinds_are_declared(self):
        for kind, _, _ in self.make_trace().critical_path():
            assert kind in SEGMENT_KINDS

    def test_empty_trace_has_no_critical_span(self):
        trace = TaskTrace(
            trace_id=1, task_id=1, client_id=0, start=0.0, end=1.0, spans=[]
        )
        with pytest.raises(ValueError, match="no spans"):
            trace.critical_span()

    def test_dict_roundtrip(self):
        trace = self.make_trace()
        assert TaskTrace.from_dict(trace.to_dict()) == trace

    def test_from_dict_tolerates_missing_spans(self):
        raw = self.make_trace().to_dict()
        del raw["spans"]
        assert TaskTrace.from_dict(raw).spans == []
