"""Unit + property tests for placement (ring, consistent hash, explicit)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.placement import (
    ConsistentHashRing,
    ExplicitPlacement,
    RingPlacement,
    stable_hash,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42, "salt") == stable_hash(42, "salt")

    def test_salt_changes_hash(self):
        assert stable_hash(42, "a") != stable_hash(42, "b")

    def test_spreads_sequential_keys(self):
        buckets = [stable_hash(k) % 10 for k in range(1000)]
        counts = [buckets.count(b) for b in range(10)]
        assert max(counts) / min(counts) < 1.6


class TestRingPlacement:
    def test_paper_shape_every_server_in_r_groups(self):
        """9 servers, RF 3: each server belongs to exactly 3 replica groups."""
        placement = RingPlacement(n_servers=9, replication_factor=3)
        placement.validate()
        for server in range(9):
            assert len(placement.partitions_of_server(server)) == 3

    def test_replicas_are_successors(self):
        placement = RingPlacement(n_servers=5, replication_factor=3)
        assert placement.replicas_of(3) == (3, 4, 0)

    def test_keys_cover_all_partitions(self):
        placement = RingPlacement(n_servers=9, replication_factor=3)
        partitions = {placement.partition_of(k) for k in range(2000)}
        assert partitions == set(range(9))

    def test_replication_factor_one(self):
        placement = RingPlacement(n_servers=4, replication_factor=1)
        placement.validate()
        assert placement.replicas_of(2) == (2,)

    def test_full_replication(self):
        placement = RingPlacement(n_servers=3, replication_factor=3)
        placement.validate()
        assert set(placement.replicas_of(0)) == {0, 1, 2}

    def test_validates_constructor(self):
        with pytest.raises(ValueError):
            RingPlacement(n_servers=0)
        with pytest.raises(ValueError):
            RingPlacement(n_servers=3, replication_factor=4)

    def test_bad_partition_rejected(self):
        placement = RingPlacement(n_servers=3)
        with pytest.raises(ValueError):
            placement.replicas_of(99)


class TestConsistentHashRing:
    def test_structural_invariants(self):
        ring = ConsistentHashRing(n_servers=9, replication_factor=3, n_partitions=64)
        ring.validate()

    def test_balanced_primary_ownership(self):
        ring = ConsistentHashRing(
            n_servers=10, replication_factor=3, n_partitions=1000, vnodes=64
        )
        primaries = [ring.replicas_of(p)[0] for p in range(1000)]
        counts = [primaries.count(s) for s in range(10)]
        assert max(counts) < 3 * min(counts)  # vnodes keep it roughly even

    def test_deterministic(self):
        a = ConsistentHashRing(n_servers=5, replication_factor=2)
        b = ConsistentHashRing(n_servers=5, replication_factor=2)
        assert [a.replicas_of(p) for p in range(a.n_partitions)] == [
            b.replicas_of(p) for p in range(b.n_partitions)
        ]

    def test_validates(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(n_servers=2, replication_factor=3)
        with pytest.raises(ValueError):
            ConsistentHashRing(n_servers=2, vnodes=0)


class TestExplicitPlacement:
    def test_figure1_layout(self):
        placement = ExplicitPlacement(
            key_to_partition={0: 0, 4: 0, 1: 1, 2: 1, 3: 2},
            partition_replicas=[(0,), (1,), (2,)],
            n_servers=3,
        )
        placement.validate()
        assert placement.replicas_of_key(0) == (0,)
        assert placement.replicas_of_key(2) == (1,)
        assert placement.partitions_of_server(2) == [2]

    def test_unknown_key_raises(self):
        placement = ExplicitPlacement({0: 0}, [(0,)], n_servers=1)
        with pytest.raises(KeyError):
            placement.partition_of(99)

    def test_mixed_replication_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPlacement({0: 0}, [(0,), (1, 2)], n_servers=3)

    def test_bad_partition_mapping_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPlacement({0: 5}, [(0,)], n_servers=1)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200, deadline=None)
def test_ring_key_always_lands_on_valid_replica_group(n_servers, rf, key):
    if rf > n_servers:
        rf = n_servers
    placement = RingPlacement(n_servers=n_servers, replication_factor=rf)
    replicas = placement.replicas_of_key(key)
    assert len(replicas) == rf
    assert len(set(replicas)) == rf
    assert all(0 <= s < n_servers for s in replicas)
