"""Unit tests for key-popularity models."""

import pytest

from repro.sim import Stream
from repro.workload import HotColdPopularity, UniformPopularity, ZipfPopularity


class TestUniform:
    def test_range(self):
        pop = UniformPopularity(100)
        stream = Stream(1)
        assert all(0 <= pop.sample_key(stream) < 100 for _ in range(2000))

    def test_roughly_flat(self):
        pop = UniformPopularity(10)
        stream = Stream(2)
        counts = [0] * 10
        for _ in range(20_000):
            counts[pop.sample_key(stream)] += 1
        assert max(counts) / min(counts) < 1.3

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError):
            UniformPopularity(0)


class TestZipf:
    def test_range(self):
        pop = ZipfPopularity(1000, skew=0.9)
        stream = Stream(3)
        assert all(0 <= pop.sample_key(stream) < 1000 for _ in range(2000))

    def test_skew_concentrates_traffic(self):
        pop = ZipfPopularity(10_000, skew=0.99)
        stream = Stream(4)
        counts = {}
        n = 50_000
        for _ in range(n):
            k = pop.sample_key(stream)
            counts[k] = counts.get(k, 0) + 1
        top = sorted(counts.values(), reverse=True)[:100]
        assert sum(top) / n > 0.2  # top 1% of keys >> 1% of traffic

    def test_permutation_decouples_rank_from_id(self):
        """The hottest key must (almost surely) not be key 0."""
        pop = ZipfPopularity(100_000, skew=1.2, perm_seed=5)
        stream = Stream(5)
        counts = {}
        for _ in range(20_000):
            k = pop.sample_key(stream)
            counts[k] = counts.get(k, 0) + 1
        hottest = max(counts, key=counts.get)
        assert hottest != 0

    def test_deterministic_permutation(self):
        a = ZipfPopularity(100, skew=0.9, perm_seed=7)
        b = ZipfPopularity(100, skew=0.9, perm_seed=7)
        sa, sb = Stream(6), Stream(6)
        assert [a.sample_key(sa) for _ in range(50)] == [
            b.sample_key(sb) for _ in range(50)
        ]

    def test_the_permutation_is_built_once_and_shared(self):
        a, b = ZipfPopularity(5000), ZipfPopularity(5000, skew=1.1)
        assert a._perm is b._perm and isinstance(a._perm, tuple)
        assert list(a._perm) == fresh_permutation(5000, 1234)


def fresh_permutation(n_keys, perm_seed):
    keys = list(range(n_keys))
    Stream(perm_seed).shuffle(keys)
    return keys


class TestHotCold:
    def test_hot_keys_get_hot_weight(self):
        pop = HotColdPopularity(1000, hot_fraction=0.1, hot_weight=0.9, perm_seed=1)
        stream = Stream(7)
        n = 50_000
        counts = {}
        for _ in range(n):
            k = pop.sample_key(stream)
            counts[k] = counts.get(k, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: -kv[1])
        hot_traffic = sum(c for _, c in ranked[:100])
        assert hot_traffic / n == pytest.approx(0.9, abs=0.05)

    def test_the_permutation_is_built_once_and_shared(self):
        a = HotColdPopularity(5000)
        b = HotColdPopularity(5000, hot_fraction=0.2, hot_weight=0.5)
        assert a._perm is b._perm and isinstance(a._perm, tuple)
        assert list(a._perm) == fresh_permutation(5000, 99)

    def test_validates(self):
        with pytest.raises(ValueError):
            HotColdPopularity(1)
        with pytest.raises(ValueError):
            HotColdPopularity(100, hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotColdPopularity(100, hot_weight=1.0)


class TestSampleDistinct:
    def test_distinct_keys(self):
        pop = ZipfPopularity(50, skew=1.5)
        stream = Stream(8)
        for _ in range(100):
            keys = pop.sample_distinct(stream, 10)
            assert len(keys) == len(set(keys)) == 10

    def test_exhausts_small_keyspace(self):
        pop = ZipfPopularity(5, skew=2.0)
        stream = Stream(9)
        keys = pop.sample_distinct(stream, 5)
        assert sorted(keys) == [0, 1, 2, 3, 4]

    def test_too_many_rejected(self):
        pop = UniformPopularity(3)
        with pytest.raises(ValueError):
            pop.sample_distinct(Stream(10), 4)
