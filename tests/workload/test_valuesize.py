"""Unit + property tests for value-size distributions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Stream
from repro.workload import GeneralizedParetoValueSize, atikoglu_etc


class TestFixed:
    """Sizes are positive byte counts: the truncation floor is at least 1."""

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GeneralizedParetoValueSize(min_size=0)


class TestUniform:
    """A narrow size window is the Pareto truncated to ``[min, max]``."""

    def test_bounds(self):
        dist = GeneralizedParetoValueSize(min_size=10, max_size=20)
        stream = Stream(2)
        draws = [dist.sample(stream) for _ in range(1000)]
        assert min(draws) >= 10 and max(draws) <= 20
        assert 10.0 < dist.mean() < 20.0
        assert sum(draws) / len(draws) == pytest.approx(dist.mean(), rel=0.05)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            GeneralizedParetoValueSize(min_size=20, max_size=10)


class TestGeneralizedPareto:
    def test_bounds_respected(self):
        dist = GeneralizedParetoValueSize(min_size=16, max_size=4096)
        stream = Stream(3)
        draws = [dist.sample(stream) for _ in range(5000)]
        assert min(draws) >= 16 and max(draws) <= 4096

    def test_empirical_mean_matches_analytic(self):
        dist = atikoglu_etc()
        stream = Stream(4)
        n = 100_000
        empirical = sum(dist.sample(stream) for _ in range(n)) / n
        assert empirical == pytest.approx(dist.mean(), rel=0.05)

    def test_mean_is_cached(self):
        dist = atikoglu_etc()
        m1 = dist.mean()
        assert dist.mean() == m1  # second call hits the cache

    def test_skewed_right(self):
        """Most values are small; the mean sits far above the median."""
        dist = atikoglu_etc()
        stream = Stream(5)
        draws = sorted(dist.sample(stream) for _ in range(20_000))
        median = draws[len(draws) // 2]
        assert dist.mean() > 1.5 * median

    def test_validates(self):
        with pytest.raises(ValueError):
            GeneralizedParetoValueSize(scale=-1.0)
        with pytest.raises(ValueError):
            GeneralizedParetoValueSize(min_size=100, max_size=100)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_gp_samples_always_positive_ints(seed):
    dist = atikoglu_etc()
    stream = Stream(seed)
    for _ in range(20):
        v = dist.sample(stream)
        assert isinstance(v, int)
        assert 1 <= v <= 1_048_576
