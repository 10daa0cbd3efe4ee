"""Unit + property tests for exact samples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import ExactSample, exact_quantile


class TestExactQuantile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            exact_quantile([1.0], 1.5)

    def test_single_element(self):
        assert exact_quantile([3.0], 0.0) == 3.0
        assert exact_quantile([3.0], 1.0) == 3.0

    def test_median_interpolation(self):
        assert exact_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_matches_numpy_convention(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(1)
        data = sorted(rng.random() for _ in range(101))
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0):
            assert exact_quantile(data, q) == pytest.approx(
                float(np.percentile(data, q * 100)), rel=1e-12
            )


class TestExactSample:
    def test_empty_raises(self):
        s = ExactSample()
        with pytest.raises(ValueError):
            _ = s.mean
        with pytest.raises(ValueError):
            s.quantile(0.5)

    def test_basic_stats(self):
        s = ExactSample()
        s.record_many([3.0, 1.0, 2.0])
        assert s.count == 3
        assert s.mean == 2.0
        assert s.min == 1.0
        assert s.max == 3.0
        assert s.quantile(0.5) == 2.0

    def test_values_returns_sorted_copy(self):
        s = ExactSample()
        s.record_many([3.0, 1.0])
        values = s.values()
        assert values == [1.0, 3.0]
        values.append(99.0)
        assert s.count == 2  # copy, not a view

    def test_interleaved_record_and_query(self):
        s = ExactSample()
        s.record(5.0)
        assert s.quantile(0.5) == 5.0
        s.record(1.0)  # out of order: must trigger re-sort
        assert s.quantile(0.0) == 1.0

    def test_stdev(self):
        s = ExactSample()
        s.record_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.stdev() == pytest.approx(2.138, rel=1e-3)

    def test_stdev_needs_two(self):
        s = ExactSample()
        s.record(1.0)
        with pytest.raises(ValueError):
            s.stdev()


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
    )
)
@settings(max_examples=100, deadline=None)
def test_exact_sample_quantiles_monotone_and_bounded(values):
    s = ExactSample()
    s.record_many(values)
    qs = [0.0, 0.2, 0.5, 0.8, 1.0]
    results = [s.quantile(q) for q in qs]
    assert results == sorted(results)
    assert results[0] == min(values)
    assert results[-1] == max(values)
