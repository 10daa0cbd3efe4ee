"""Unit tests for the SoundCloud-like workload assembly."""

import pytest

from repro.workload import (
    PAPER_LOAD,
    PAPER_MEAN_FANOUT,
    make_soundcloud_workload,
    trace_stats,
)


class TestDefaults:
    def test_paper_constants(self):
        assert PAPER_MEAN_FANOUT == 8.6
        assert PAPER_LOAD == 0.70

    def test_task_rate_is_seventy_percent_of_capacity(self):
        w = make_soundcloud_workload()
        capacity_requests = 9 * 4 * 3500.0
        expected = 0.7 * capacity_requests / w.fanout.mean()
        assert w.task_rate == pytest.approx(expected)

    def test_generated_trace_matches_disclosed_stats(self):
        w = make_soundcloud_workload(n_tasks=5000)
        stats = trace_stats(w.generate(seed=1))
        assert stats["mean_fanout"] == pytest.approx(8.6, rel=0.1)
        assert stats["task_rate"] == pytest.approx(w.task_rate, rel=0.1)

    def test_same_seed_same_trace(self):
        w = make_soundcloud_workload(n_tasks=100)
        t1 = w.generate(seed=9)
        t2 = w.generate(seed=9)
        assert [t.keys() for t in t1] == [t.keys() for t in t2]

    def test_different_seeds_differ(self):
        w = make_soundcloud_workload(n_tasks=100)
        assert [t.keys() for t in w.generate(seed=1)] != [
            t.keys() for t in w.generate(seed=2)
        ]

    def test_service_model_calibrated(self):
        w = make_soundcloud_workload()
        assert 1.0 / w.service_model.mean_time(
            w.value_sizes.mean()
        ) == pytest.approx(3500.0, rel=1e-6)

    def test_rejects_bad_task_count(self):
        with pytest.raises(ValueError):
            make_soundcloud_workload(n_tasks=0)
