"""Property-based tests (hypothesis) for the placement layer.

Invariants (ISSUE 4's placement contract):

* ring lookups are deterministic: the same constructor arguments yield
  the same key -> replica-set mapping in any process, and two
  independently built rings agree everywhere;
* every key resolves to exactly ``replication_factor`` *distinct*,
  in-range servers;
* membership changes move no more than they must: removing a server
  from a consistent-hash ring changes only the replica groups that
  contained it (minimal movement), so the moved key fraction equals the
  theoretical minimum and primary moves stay near ``K/N``.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.placement import (
    ConsistentHashRing,
    MutablePlacement,
    RingPlacement,
    placement_delta,
)

ring_params = st.tuples(
    st.integers(min_value=2, max_value=16),   # n_servers
    st.integers(min_value=1, max_value=16),   # replication_factor (clamped)
    st.integers(min_value=1, max_value=96),   # n_partitions
)


def _clamp(params):
    n_servers, rf, n_partitions = params
    return n_servers, min(rf, n_servers), n_partitions


@settings(max_examples=40, deadline=None)
@given(ring_params, st.integers(min_value=0, max_value=10_000))
def test_ring_lookup_deterministic_per_seed(params, key):
    n_servers, rf, n_partitions = _clamp(params)
    a = RingPlacement(n_servers, rf, n_partitions)
    b = RingPlacement(n_servers, rf, n_partitions)
    assert a.partition_of(key) == b.partition_of(key)
    assert a.replicas_of_key(key) == b.replicas_of_key(key)


@settings(max_examples=25, deadline=None)
@given(ring_params, st.integers(min_value=1, max_value=8))
def test_chash_lookup_deterministic_per_seed(params, vnodes):
    n_servers, rf, n_partitions = _clamp(params)
    a = ConsistentHashRing(n_servers, rf, n_partitions, vnodes=vnodes)
    b = ConsistentHashRing(n_servers, rf, n_partitions, vnodes=vnodes)
    for p in range(n_partitions):
        assert a.replicas_of(p) == b.replicas_of(p)
    for key in range(0, 500, 7):
        assert a.partition_of(key) == b.partition_of(key)


@settings(max_examples=40, deadline=None)
@given(ring_params, st.sampled_from(["ring", "chash"]))
def test_every_key_gets_rf_distinct_servers(params, kind):
    n_servers, rf, n_partitions = _clamp(params)
    placement = (
        RingPlacement(n_servers, rf, n_partitions)
        if kind == "ring"
        else ConsistentHashRing(n_servers, rf, n_partitions, vnodes=4)
    )
    placement.validate()
    for key in range(0, 400, 13):
        replicas = placement.replicas_of_key(key)
        assert len(replicas) == rf
        assert len(set(replicas)) == rf
        assert all(0 <= s < n_servers for s in replicas)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),   # n_servers
    st.integers(min_value=1, max_value=3),    # replication_factor
    st.integers(min_value=8, max_value=64),   # n_partitions
    st.integers(min_value=2, max_value=8),    # vnodes
    st.integers(min_value=0, max_value=11),   # server to remove (mod n)
)
def test_chash_rebalance_moves_only_affected_groups(
    n_servers, rf, n_partitions, vnodes, removed
):
    removed %= n_servers
    rf = min(rf, n_servers - 1)
    ring = ConsistentHashRing(n_servers, rf, n_partitions, vnodes=vnodes)
    shrunk = ring.without_servers([removed])
    for p in range(n_partitions):
        before = ring.replicas_of(p)
        after = shrunk.replicas_of(p)
        assert removed not in after
        if removed not in before:
            # Minimal movement: untouched groups are *identical*, order
            # included (the clockwise walk is unchanged).
            assert after == before
        else:
            # The departed server is replaced; the survivors stay.
            assert set(before) - {removed} <= set(after)
            assert len(after) == rf


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=0, max_value=9),
)
def test_rebalance_delta_within_theoretical_minimum(n_servers, removed):
    removed %= n_servers
    ring = ConsistentHashRing(
        n_servers, replication_factor=3, n_partitions=64, vnodes=16
    )
    shrunk = ring.without_servers([removed])
    delta = placement_delta(ring, shrunk, n_keys=2000)
    # Consistent hashing moves exactly the keys the departed server held,
    # never more (<= covers degenerate zero-ownership draws).
    assert delta.moved_fraction <= delta.affected_fraction
    assert delta.moved_keys <= delta.affected_keys
    # Primary moves ~ K/N: only keys whose primary was the departed
    # server re-home their primary.  Vnode imbalance bounds the excess.
    assert delta.primary_moved_fraction <= 3.0 / n_servers


def test_ring_placement_successor_fallthrough_is_minimal():
    ring = RingPlacement(n_servers=9, replication_factor=3)
    shrunk = ring.without_servers([4])
    for p in range(ring.n_partitions):
        before = ring.replicas_of(p)
        after = shrunk.replicas_of(p)
        assert 4 not in after
        if 4 not in before:
            assert after == before


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=2),
)
def test_mutable_placement_exclude_readmit_roundtrip(n_servers, excluded):
    excluded = {s % n_servers for s in excluded}
    if len(excluded) > n_servers - 2:
        excluded = set(list(excluded)[: n_servers - 2])
    ring = ConsistentHashRing(
        n_servers, replication_factor=2, n_partitions=32, vnodes=4
    )
    mutable = MutablePlacement(ring)
    base_groups = [mutable.replicas_of(p) for p in range(ring.n_partitions)]
    mutable.exclude(excluded)
    for p in range(ring.n_partitions):
        assert not (set(mutable.replicas_of(p)) & excluded)
    mutable.validate()
    mutable.readmit(excluded)
    assert [
        mutable.replicas_of(p) for p in range(ring.n_partitions)
    ] == base_groups
    assert mutable.excluded == ()
    assert mutable.swaps == 2


def test_overlapping_exclusions_are_reference_counted():
    """Two windows sharing a server nest: the first revert keeps the
    shared server out, the second brings it back (overlap composes)."""
    mutable = MutablePlacement(
        RingPlacement(n_servers=9, replication_factor=3)
    )
    mutable.exclude([2])          # window A opens
    mutable.exclude([2, 5])       # overlapping window B opens
    assert mutable.excluded == (2, 5)
    mutable.readmit([2])          # window A closes; B still holds 2
    assert mutable.excluded == (2, 5)
    mutable.readmit([2, 5])       # window B closes
    assert mutable.excluded == ()
    assert mutable.active is mutable.base


def test_mutable_placement_rejects_bad_readmit_and_over_exclusion():
    mutable = MutablePlacement(RingPlacement(n_servers=4, replication_factor=2))
    mutable.exclude([1])
    with pytest.raises(ValueError, match="not excluded"):
        mutable.readmit([3])
    with pytest.raises(ValueError, match="replication_factor"):
        mutable.exclude([0, 2])  # would leave 1 < RF=2 live servers
    # The failed exclusion must not have corrupted state.
    assert mutable.excluded == (1,)
    mutable.readmit([1])
    assert mutable.excluded == ()


def test_degenerate_full_replication_ring_offers_every_server():
    """RF == N: every key's eligible set is the whole cluster -- the
    pre-placement 'any server holds any key' model, recovered exactly."""
    for placement in (
        RingPlacement(n_servers=9, replication_factor=9),
        ConsistentHashRing(n_servers=9, replication_factor=9, n_partitions=16),
    ):
        placement.validate()
        for key in range(50):
            assert sorted(placement.replicas_of_key(key)) == list(range(9))


def _build(kind, n_servers, rf, n_partitions):
    if kind == "ring":
        return RingPlacement(n_servers, rf, n_partitions)
    return ConsistentHashRing(n_servers, rf, n_partitions, vnodes=4)


key_sequences = st.lists(
    st.integers(min_value=0, max_value=2_000), min_size=1, max_size=60
)


@settings(max_examples=40, deadline=None)
@given(ring_params, st.sampled_from(["ring", "chash"]), key_sequences)
def test_warm_memo_answers_like_a_fresh_ring(params, kind, keys):
    """A key's partition is hashed once and remembered: whatever was asked
    before (repeats included), every lookup equals a cold ring's."""
    n_servers, rf, n_partitions = _clamp(params)
    warm = _build(kind, n_servers, rf, n_partitions)
    for key in keys:
        fresh = _build(kind, n_servers, rf, n_partitions)
        partition = fresh.partition_of(key)
        assert warm.partition_of(key) == partition
        assert warm.replicas_of(partition) == fresh.replicas_of(partition)
        assert warm.replicas_of_key(key) == fresh.replicas_of_key(key)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["ring", "chash"]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    key_sequences,
)
def test_membership_changes_bypass_the_partition_memo(kind, gone, extra, keys):
    """exclude/readmit/boost/unboost on a warm memo: ``replicas_of`` follows
    the change at once, ``partition_of`` never moves."""
    mutable = MutablePlacement(_build(kind, 9, 3, 9 if kind == "ring" else 32))
    reference = _build(kind, 9, 3, mutable.n_partitions)
    before = {key: mutable.partition_of(key) for key in keys}  # warms the memo
    base_groups = {p: mutable.replicas_of(p) for p in before.values()}

    def partitions_unmoved():
        return all(mutable.partition_of(key) == before[key] for key in keys)

    mutable.exclude([gone])
    without = reference.without_servers([gone])
    assert partitions_unmoved()
    for partition in base_groups:
        assert gone not in mutable.replicas_of(partition)
        assert mutable.replicas_of(partition) == without.replicas_of(partition)
    mutable.readmit([gone])
    assert partitions_unmoved()
    assert {p: mutable.replicas_of(p) for p in base_groups} == base_groups

    target = before[keys[0]]
    mutable.boost(target, [extra])
    assert partitions_unmoved()
    assert set(mutable.replicas_of(target)) == set(base_groups[target]) | {extra}
    assert mutable.replicas_of_key(keys[0]) == mutable.replicas_of(target)
    mutable.unboost(target)
    assert partitions_unmoved()
    assert mutable.replicas_of(target) == base_groups[target]


@pytest.mark.parametrize("kind", ["ring", "chash"])
def test_partition_memo_is_bounded_and_right_beyond_the_bound(kind, monkeypatch):
    """Only the first ``MEMO_KEYS`` distinct keys are remembered; a key seen
    later is hashed every time and gets the same answer."""
    from repro.placement import ring as ring_module

    monkeypatch.setattr(ring_module, "MEMO_KEYS", 8)
    warm = _build(kind, 9, 3, 32)
    keys = list(range(100, 140))
    for _ in range(2):
        for key in keys:
            assert warm.partition_of(key) == _build(kind, 9, 3, 32).partition_of(key)
    assert len(warm._partitions) == 8
