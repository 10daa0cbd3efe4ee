"""Unit tests for deterministic named random streams."""

import math

import pytest

from repro.sim import Stream, StreamFactory, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_names_distinct_seeds(self):
        seeds = {derive_seed(7, f"name{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_distinct_roots_distinct_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestStreamFactory:
    def test_memoizes_streams(self):
        factory = StreamFactory(3)
        assert factory.stream("a") is factory.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        f1 = StreamFactory(5)
        f2 = StreamFactory(5)
        _ = f1.stream("noise").random()  # extra stream, used first
        a1 = [f1.stream("target").random() for _ in range(10)]
        a2 = [f2.stream("target").random() for _ in range(10)]
        assert a1 == a2


class TestDistributions:
    def test_exponential_mean(self):
        stream = Stream(1, "exp")
        n = 50_000
        mean = sum(stream.exponential(2.0) for _ in range(n)) / n
        assert abs(mean - 2.0) < 0.05

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            Stream(1).exponential(0.0)

    def test_zipf_range(self):
        stream = Stream(4, "zipf")
        n = 50
        draws = [stream.zipf(n, 0.9) for _ in range(5000)]
        assert all(0 <= d < n for d in draws)

    def test_zipf_skews_toward_low_ranks(self):
        stream = Stream(5, "zipf")
        n = 1000
        draws = [stream.zipf(n, 1.2) for _ in range(20_000)]
        top_decile = sum(1 for d in draws if d < n // 10)
        assert top_decile / len(draws) > 0.5  # heavy head

    def test_zipf_single_element(self):
        assert Stream(6).zipf(1, 0.9) == 0

    def test_zipf_validates(self):
        with pytest.raises(ValueError):
            Stream(7).zipf(0, 0.9)
        with pytest.raises(ValueError):
            Stream(7).zipf(10, -1.0)

    def test_lognormal_mean_hits_arithmetic_mean(self):
        stream = Stream(8, "ln")
        n = 100_000
        target = 5.0
        mean = sum(stream.lognormal_mean(target, 0.8) for _ in range(n)) / n
        assert abs(mean - target) / target < 0.03

    def test_lognormal_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Stream(9).lognormal_mean(0.0, 1.0)
