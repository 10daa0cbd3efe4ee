"""Tracing wired through the simulated realm: invariants and goldens.

The two contracts the sim realm guarantees:

* critical-path segment durations sum to the task's measured latency
  (the acceptance bound is 1%; floating-point telescoping makes it
  essentially exact), and
* turning sampling on changes *nothing* about the schedule — the
  RunResult golden surface is byte-identical, because sampling is a pure
  task-id hash outside every RNG stream and adds no calendar events.
"""

import json
import math

import pytest

from repro.harness import ExperimentConfig
from repro.harness.config import WARMUP_FRACTION
from repro.harness.runner import run_experiment
from repro.scenarios import get_scenario
from repro.trace import is_sampled


def hot_shard_config(**overrides):
    return get_scenario("hot-shard").build_config(
        strategy="unifincr-credits", n_tasks=400, **overrides
    )


def golden_surface(result):
    """The comparable summary: to_dict minus the trace audit extras."""
    raw = json.loads(json.dumps(result.to_dict()))
    raw["extras"] = {
        k: v for k, v in raw["extras"].items() if not k.startswith("trace_")
    }
    return raw


class TestCriticalPathInvariant:
    def test_segments_sum_to_measured_latency(self):
        result = run_experiment(hot_shard_config(trace_sample=1.0), seed=1)
        assert result.traces
        for trace in result.traces:
            total = sum(v for _, v, _ in trace.critical_path())
            assert math.isclose(total, trace.latency, rel_tol=1e-9)

    def test_sched_lag_is_zero_in_the_sim(self):
        result = run_experiment(hot_shard_config(trace_sample=1.0), seed=1)
        for trace in result.traces[:50]:
            kind, value, _ = trace.critical_path()[0]
            assert kind == "sched_lag"
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_hedged_runs_label_hedge_spans(self):
        config = get_scenario("hot-shard").build_config(
            strategy="hedged", n_tasks=400, trace_sample=1.0
        )
        result = run_experiment(config, seed=1)
        hedged = [
            s for t in result.traces for s in t.spans if s.hedge
        ]
        assert hedged  # the hot shard forces hedges at this scale
        for span in hedged[:20]:
            assert "hedge_wait" in span.segments()


class TestGoldenNeutrality:
    def test_sampling_on_leaves_the_golden_surface_identical(self):
        config_off = hot_shard_config()
        config_on = hot_shard_config(trace_sample=1.0)
        off = run_experiment(config_off, seed=3)
        on = run_experiment(config_on, seed=3)
        assert golden_surface(off) == golden_surface(on)
        assert off.traces is None
        assert on.traces

    def test_trace_extras_only_appear_when_sampling(self):
        off = run_experiment(hot_shard_config(), seed=1)
        on = run_experiment(hot_shard_config(trace_sample=0.5), seed=1)
        assert not any(k.startswith("trace_") for k in off.extras)
        assert on.extras["trace_sampled"] > 0
        assert on.extras["trace_spans"] >= on.extras["trace_sampled"]

    def test_to_dict_never_carries_raw_traces(self):
        on = run_experiment(hot_shard_config(trace_sample=1.0), seed=1)
        assert "traces" not in on.to_dict()


class TestSampledSubset:
    def test_recorded_tasks_match_the_hash_predicate(self):
        config = hot_shard_config(trace_sample=0.3)
        result = run_experiment(config, seed=1)
        warmup = int(WARMUP_FRACTION * config.n_tasks)
        recorded = {t.task_id for t in result.traces}
        expected = {
            task_id for task_id in range(warmup, config.n_tasks)
            if is_sampled(task_id, 0.3)
        }
        assert recorded == expected

    def test_every_sampled_task_of_a_long_run_is_kept(self):
        """All 4,750 sampled tasks of a 5,000-task run are kept, in memory
        and in the audit count, so tail attribution covers the whole run."""
        config = get_scenario("hot-shard").build_config(
            strategy="unifincr-credits", n_tasks=5000, trace_sample=1.0
        )
        result = run_experiment(config, seed=1)
        warmup = int(WARMUP_FRACTION * config.n_tasks)
        expected = {
            task_id for task_id in range(warmup, config.n_tasks)
            if is_sampled(task_id, 1.0)
        }
        assert len(expected) == 4750
        assert {t.task_id for t in result.traces} == expected
        assert len(result.traces) == result.extras["trace_sampled"]

    def test_partial_sample_is_a_subset_of_full(self):
        partial = run_experiment(hot_shard_config(trace_sample=0.3), seed=1)
        full = run_experiment(hot_shard_config(trace_sample=1.0), seed=1)
        partial_ids = {t.task_id for t in partial.traces}
        full_ids = {t.task_id for t in full.traces}
        assert partial_ids < full_ids

    def test_bad_sample_rate_is_rejected_by_config(self):
        with pytest.raises(ValueError, match="trace_sample"):
            ExperimentConfig(strategy="c3", n_tasks=10, trace_sample=1.5)
