"""Unit tests for statistics helpers."""

import pytest

from repro.analysis import (
    bootstrap_ci,
    coefficient_of_variation,
    mean,
    stdev,
)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_stdev(self):
        assert stdev([1.0, 1.0, 1.0]) == 0.0
        assert stdev([1.0, 3.0]) == pytest.approx(2.0**0.5)
        with pytest.raises(ValueError):
            stdev([1.0])

    def test_cv(self):
        assert coefficient_of_variation([10.0, 10.0]) == 0.0
        with pytest.raises(ValueError):
            coefficient_of_variation([1.0, -1.0])


class TestBootstrap:
    def test_ci_contains_mean_for_tight_data(self):
        data = [10.0 + 0.01 * i for i in range(100)]
        lo, hi = bootstrap_ci(data, confidence=0.95, n_resamples=500)
        assert lo <= mean(data) <= hi
        assert hi - lo < 0.5

    def test_ci_wider_for_noisy_data(self):
        tight = [10.0 + 0.01 * i for i in range(50)]
        noisy = [10.0 + 5.0 * ((-1) ** i) for i in range(50)]
        lo_t, hi_t = bootstrap_ci(tight, n_resamples=300)
        lo_n, hi_n = bootstrap_ci(noisy, n_resamples=300)
        assert (hi_n - lo_n) > (hi_t - lo_t)

    def test_deterministic_given_seed(self):
        data = [float(i) for i in range(30)]
        assert bootstrap_ci(data, seed=5) == bootstrap_ci(data, seed=5)

    def test_validates(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], n_resamples=5)
