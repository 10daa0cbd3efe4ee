"""Unit tests for latency summaries and seed averaging."""

import math

import pytest

from repro.metrics import (
    ExactSample,
    LatencySummary,
    PAPER_PERCENTILES,
    mean_of_summaries,
)


def sample_of(values):
    s = ExactSample()
    s.record_many(values)
    return s


class TestLatencySummary:
    def test_from_recorder(self):
        s = sample_of([float(i) for i in range(1, 101)])
        summary = LatencySummary.from_recorder("test", s, (50.0, 99.0))
        assert summary.count == 100
        assert summary.median == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)

    def test_empty_recorder_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.from_recorder("x", ExactSample())

    def test_unknown_percentile_raises(self):
        summary = LatencySummary.from_recorder("x", sample_of([1.0, 2.0]), (50.0,))
        with pytest.raises(KeyError):
            summary.percentile(99.0)

    def test_scaled(self):
        summary = LatencySummary.from_recorder("x", sample_of([0.001, 0.002]), (50.0,))
        ms = summary.scaled(1e3)
        assert ms.percentile(50.0) == pytest.approx(1.5)
        assert ms.mean == pytest.approx(1.5)
        assert ms.count == summary.count

    def test_ratio_to(self):
        slow = LatencySummary.from_recorder("slow", sample_of([2.0, 4.0]), (50.0,))
        fast = LatencySummary.from_recorder("fast", sample_of([1.0, 2.0]), (50.0,))
        assert slow.ratio_to(fast)[50.0] == pytest.approx(2.0)

    def test_ratio_to_zero_denominator_is_inf(self):
        # Degenerate windows (e.g. an all-zero bus snapshot) can report a
        # zero percentile; the ratio must not raise ZeroDivisionError.
        num = LatencySummary("num", 2, 1.0, {50.0: 1.0})
        zero = LatencySummary("zero", 2, 0.0, {50.0: 0.0})
        assert num.ratio_to(zero)[50.0] == math.inf

    def test_ratio_to_zero_over_zero_is_nan(self):
        zero_a = LatencySummary("a", 2, 0.0, {50.0: 0.0})
        zero_b = LatencySummary("b", 2, 0.0, {50.0: 0.0})
        assert math.isnan(zero_a.ratio_to(zero_b)[50.0])

    def test_ratio_requires_shared_percentiles(self):
        a = LatencySummary.from_recorder("a", sample_of([1.0]), (50.0,))
        b = LatencySummary.from_recorder("b", sample_of([1.0]), (99.0,))
        with pytest.raises(ValueError):
            a.ratio_to(b)

    def test_str_mentions_name_and_count(self):
        summary = LatencySummary.from_recorder("abc", sample_of([1.0, 2.0]), (50.0,))
        text = str(summary)
        assert "abc" in text and "n=2" in text

    def test_paper_percentiles_constant(self):
        assert PAPER_PERCENTILES == (50.0, 95.0, 99.0)


class TestMeanOfSummaries:
    def test_averages_percentiles(self):
        s1 = LatencySummary("x", 10, 1.0, {50.0: 1.0, 99.0: 10.0})
        s2 = LatencySummary("x", 10, 3.0, {50.0: 3.0, 99.0: 20.0})
        avg = mean_of_summaries([s1, s2])
        assert avg.mean == pytest.approx(2.0)
        assert avg.percentile(50.0) == pytest.approx(2.0)
        assert avg.percentile(99.0) == pytest.approx(15.0)
        assert avg.count == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_of_summaries([])

    def test_mismatched_percentiles_rejected(self):
        s1 = LatencySummary("x", 1, 1.0, {50.0: 1.0})
        s2 = LatencySummary("x", 1, 1.0, {99.0: 1.0})
        with pytest.raises(ValueError):
            mean_of_summaries([s1, s2])
