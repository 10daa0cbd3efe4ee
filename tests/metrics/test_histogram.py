"""Unit + property tests for the log-bucketed histogram."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import LogHistogram


class TestBasics:
    def test_empty_histogram_raises_on_queries(self):
        h = LogHistogram()
        with pytest.raises(ValueError):
            h.quantile(0.5)

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
        assert h.quantile(0.5) == pytest.approx(0.005, rel=0.02)
        assert h.quantile(0.0) == h.quantile(1.0) == 0.005

    def test_clamping_counted(self):
        h = LogHistogram(min_value=1e-3, max_value=1.0)
        h.record(1e-6)
        h.record(100.0)
        assert h.clamped_low == 1
        assert h.clamped_high == 1
        assert h.count == 2

    def test_extremes(self):
        h = LogHistogram()
        for value in (0.001, 0.002, 0.003):
            h.record(value)
        assert h.quantile(0.0) == 0.001
        assert h.quantile(1.0) == 0.003

    def test_quantile_out_of_range(self):
        h = LogHistogram()
        h.record(0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestAccuracy:
    def test_quantile_relative_error_bounded(self):
        rng = random.Random(42)
        h = LogHistogram(min_value=1e-6, max_value=10.0, precision=0.01)
        values = sorted(rng.lognormvariate(-6, 1.5) for _ in range(20_000))
        for value in values:
            h.record(value)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = values[int(q * (len(values) - 1))]
            approx = h.quantile(q)
            assert abs(approx - exact) / exact < 0.05, (q, exact, approx)

    def test_cdf_points_monotone(self):
        rng = random.Random(3)
        h = LogHistogram()
        drawn = [rng.uniform(1e-4, 1e-1) for _ in range(2000)]
        for value in drawn:
            h.record(value)
        fractions = [i / 50 for i in range(51)]
        values = [h.quantile(f) for f in fractions]
        assert values == sorted(values)
        assert values[0] == min(drawn) and values[-1] == max(drawn)


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
    for value in values:
        h.record(value)
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
    for value in values:
        h.record(value)
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    results = [h.quantile(q) for q in qs]
    assert results == sorted(results)
