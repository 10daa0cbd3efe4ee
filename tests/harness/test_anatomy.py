"""Tests for the per-request latency decomposition (the tracer's spans)."""

import statistics

import pytest

from repro.harness import ExperimentConfig, run_experiment

SMALL = dict(n_tasks=500, n_keys=3000, trace_sample=1.0)


def segments(result, kind):
    """Every traced request's ``kind`` segment, keyed by (task id, key)."""
    return {
        (trace.task_id, span.key): span.segments()[kind]
        for trace in result.traces
        for span in trace.spans
    }


class TestLatencyAnatomy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentConfig(strategy="c3", **SMALL), seed=1)

    def test_samples_populated(self, result):
        assert len(result.traces) == result.tasks_measured
        assert result.extras["trace_evicted"] == 0
        spans = [span for trace in result.traces for span in trace.spans]
        assert len(spans) == result.extras["trace_spans"]
        assert all(
            set(span.segments())
            == {"credit_wait", "network_out", "queue_wait", "service", "network_in"}
            for span in spans
        )

    def test_decomposition_adds_up(self, result):
        """client wait + network + queue + service == request latency, in
        the mean.  The constant-latency network contributes exactly 2x50us
        per request; means are additive even though percentiles are not.
        """
        spans = [span for trace in result.traces for span in trace.spans]
        network = 2 * 50e-6
        recomposed = (
            statistics.fmean(segments(result, "credit_wait").values())
            + network
            + statistics.fmean(segments(result, "queue_wait").values())
            + statistics.fmean(segments(result, "service").values())
        )
        measured = statistics.fmean(span.duration for span in spans)
        assert recomposed == pytest.approx(measured, rel=1e-6)

    def test_components_nonnegative(self, result):
        assert min(segments(result, "queue_wait").values()) >= 0
        assert min(segments(result, "service").values()) > 0

    def test_disabled_by_default(self):
        r = run_experiment(
            ExperimentConfig(strategy="c3", n_tasks=200, n_keys=2000), seed=1
        )
        assert r.traces is None
        assert not any(key.startswith("trace_") for key in r.extras)

    def test_scheduler_only_moves_queue_wait(self):
        """Same trace, same servers: each op's service time must be
        identical (the deterministic model makes it a pure function of the
        op), so any task-latency difference lives in the schedulable
        components."""
        c3 = run_experiment(ExperimentConfig(strategy="c3", **SMALL), seed=2)
        brb = run_experiment(
            ExperimentConfig(strategy="unifincr-model", **SMALL), seed=2
        )
        c3_service, brb_service = segments(c3, "service"), segments(brb, "service")
        assert c3_service.keys() == brb_service.keys()
        for op, seconds in c3_service.items():
            assert brb_service[op] == pytest.approx(seconds, rel=1e-9)
        # The ideal model cuts the *median* queue wait (short requests stop
        # waiting behind convoys)...
        assert statistics.median(segments(brb, "queue_wait").values()) < (
            statistics.median(segments(c3, "queue_wait").values())
        )
        # ...and converts that into better task tails.
        assert brb.summary((99.0,)).p99 < c3.summary((99.0,)).p99
