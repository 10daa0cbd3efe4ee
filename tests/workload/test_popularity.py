"""Unit tests for key-popularity models."""

import pytest

from repro.sim import Stream
from repro.workload import SubsetHotspotPopularity, ZipfPopularity
from repro.workload.popularity import PERM_SEED


class TestUniform:
    """Zipf's low-skew limit: a near-zero skew spreads draws flat over the
    keyspace (the rejection-inversion sampler's other extreme)."""

    def test_range(self):
        pop = ZipfPopularity(100, skew=0.01)
        stream = Stream(1)
        assert all(0 <= pop.sample_key(stream) < 100 for _ in range(2000))

    def test_roughly_flat(self):
        pop = ZipfPopularity(10, skew=0.01)
        stream = Stream(2)
        counts = [0] * 10
        for _ in range(20_000):
            counts[pop.sample_key(stream)] += 1
        assert max(counts) / min(counts) < 1.3

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0, skew=0.01)


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
        pop = ZipfPopularity(100_000, skew=1.2)
        stream = Stream(5)
        counts = {}
        for _ in range(20_000):
            k = pop.sample_key(stream)
            counts[k] = counts.get(k, 0) + 1
        hottest = max(counts, key=counts.get)
        assert hottest != 0

    def test_deterministic_permutation(self):
        a = ZipfPopularity(100, skew=0.9)
        b = ZipfPopularity(100, skew=0.9)
        sa, sb = Stream(6), Stream(6)
        assert [a.sample_key(sa) for _ in range(50)] == [
            b.sample_key(sb) for _ in range(50)
        ]

    def test_the_permutation_is_built_once_and_shared(self):
        a, b = ZipfPopularity(5000), ZipfPopularity(5000, skew=1.1)
        assert a._perm is b._perm and isinstance(a._perm, tuple)
        assert list(a._perm) == fresh_permutation(5000, PERM_SEED)


def fresh_permutation(n_keys, perm_seed):
    keys = list(range(n_keys))
    Stream(perm_seed).shuffle(keys)
    return keys


class TestHotCold:
    """Hot/cold skew is :class:`SubsetHotspotPopularity` over a Zipf base,
    the model behind the ``hot-shard`` scenarios."""

    def test_hot_keys_get_hot_weight(self):
        base = ZipfPopularity(1000, skew=0.9)
        hot = set(range(0, 1000, 10))
        pop = SubsetHotspotPopularity(base, sorted(hot), weight=0.9)
        # The base branch hits hot keys too: exactly its Zipf mass on them.
        weights = [(rank + 1) ** -0.9 for rank in range(1000)]
        base_share = sum(
            w for rank, w in enumerate(weights) if base._perm[rank] in hot
        ) / sum(weights)
        stream = Stream(7)
        n = 50_000
        hot_traffic = sum(pop.sample_key(stream) in hot for _ in range(n))
        assert hot_traffic / n == pytest.approx(
            0.9 + 0.1 * base_share, abs=0.01
        )

    @pytest.mark.parametrize(
        "n_keys,skew", [(500, 0.9), (20_000, 1.3), (100, 1.0), (1, 0.9)]
    )
    def test_zipf_block_is_the_sequential_draws(self, n_keys, skew):
        """Zipf's block is one loop over ``Stream.zipf_block``: the same keys
        as one draw at a time, leaving the stream where they leave it."""
        pop = ZipfPopularity(n_keys, skew)
        stream, block_stream = Stream(12), Stream(12)
        sequential = [pop.sample_key(stream) for _ in range(300)]
        assert pop.sample_block(block_stream, 300) == sequential
        assert block_stream.random() == stream.random()

    def test_block_draws_match_sequential_draws(self):
        """The generator buffers keys through ``sample_block``; for the
        two-branch hot model that must still be the sequential draws."""
        pop = SubsetHotspotPopularity(ZipfPopularity(500), [3, 5, 7], weight=0.4)
        stream = Stream(11)
        sequential = [pop.sample_key(stream) for _ in range(200)]
        assert pop.sample_block(Stream(11), 200) == sequential

    def test_validates(self):
        base = ZipfPopularity(100)
        with pytest.raises(ValueError):
            SubsetHotspotPopularity(base, [])
        with pytest.raises(ValueError):
            SubsetHotspotPopularity(base, [1, 2], weight=0.0)
        with pytest.raises(ValueError):
            SubsetHotspotPopularity(base, [1, 2], weight=1.0)
        with pytest.raises(ValueError):
            SubsetHotspotPopularity(base, [100])


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
        pop = ZipfPopularity(3)
        with pytest.raises(ValueError):
            pop.sample_distinct(Stream(10), 4)
