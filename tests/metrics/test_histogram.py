"""Unit + property tests for the log-bucketed histogram."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import LogHistogram


class TestBasics:
    def test_empty_histogram_raises_on_queries(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.quantile(0.5)
        with pytest.raises(ValueError):
            _ = h.mean

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0, max_value=1.0)
        with pytest.raises(ValueError):
            LogHistogram(min_value=2.0, max_value=1.0)
        with pytest.raises(ValueError):
            LogHistogram(precision=0.0)

    def test_rejects_negative_and_nan(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.record(-1.0)
        with pytest.raises(ValueError):
            h.record(float("nan"))

    def test_single_value(self):
        h = LogHistogram()
        h.record(0.005)
        assert h.count == 1
        assert h.mean == 0.005
        assert h.quantile(0.5) == pytest.approx(0.005, rel=0.02)
        assert h.min == h.max == 0.005

    def test_mean_is_exact_not_bucketed(self):
        h = LogHistogram(precision=0.5)  # very coarse buckets
        values = [0.001, 0.002, 0.003, 0.009]
        h.record_many(values)
        assert h.mean == pytest.approx(sum(values) / len(values), rel=1e-12)

    def test_clamping_counted(self):
        h = LogHistogram(min_value=1e-3, max_value=1.0)
        h.record(1e-6)
        h.record(100.0)
        assert h.clamped_low == 1
        assert h.clamped_high == 1
        assert h.count == 2

    def test_extremes(self):
        h = LogHistogram()
        h.record_many([0.001, 0.002, 0.003])
        assert h.quantile(0.0) == 0.001
        assert h.quantile(1.0) == 0.003

    def test_quantile_out_of_range(self):
        h = LogHistogram()
        h.record(0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_percentile_alias(self):
        h = LogHistogram()
        h.record_many([0.001 * i for i in range(1, 101)])
        assert h.percentile(50.0) == h.quantile(0.5)


class TestAccuracy:
    def test_quantile_relative_error_bounded(self):
        rng = random.Random(42)
        h = LogHistogram(min_value=1e-6, max_value=10.0, precision=0.01)
        values = sorted(rng.lognormvariate(-6, 1.5) for _ in range(20_000))
        h.record_many(values)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = values[int(q * (len(values) - 1))]
            approx = h.quantile(q)
            assert abs(approx - exact) / exact < 0.05, (q, exact, approx)

    def test_merge_equals_combined_stream(self):
        rng = random.Random(7)
        a, b, combined = LogHistogram(), LogHistogram(), LogHistogram()
        for i in range(5000):
            v = rng.expovariate(1000.0) + 1e-6
            combined.record(v)
            (a if i % 2 == 0 else b).record(v)
        a.merge(b)
        assert a.count == combined.count
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == pytest.approx(combined.quantile(q), rel=1e-9)

    def test_merge_rejects_incompatible(self):
        a = LogHistogram(precision=0.01)
        b = LogHistogram(precision=0.02)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_cdf_points_monotone(self):
        rng = random.Random(3)
        h = LogHistogram()
        h.record_many(rng.uniform(1e-4, 1e-1) for _ in range(2000))
        fractions = [i / 50 for i in range(51)]
        values = [h.quantile(f) for f in fractions]
        assert values == sorted(values)
        assert values[0] == h.min and values[-1] == h.max


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=500,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_quantiles_within_observed_range(values, q):
    h = LogHistogram()
    h.record_many(values)
    result = h.quantile(q)
    assert min(values) <= result <= max(values)


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=300,
    )
)
@settings(max_examples=100, deadline=None)
def test_quantile_function_is_monotone(values):
    h = LogHistogram()
    h.record_many(values)
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    results = [h.quantile(q) for q in qs]
    assert results == sorted(results)
