"""Ring membership changes: deltas, movement accounting, live swaps.

Two concerns live here:

* :func:`placement_delta` quantifies what a membership change moves --
  how many partitions re-home, what fraction of a keyspace changes its
  replica set or its primary -- against the theoretical consistent-hashing
  minimum (only the keys the departed servers held need to move).
* :class:`MutablePlacement` is the runtime seam for *mid-run* rebalances:
  it wraps any :class:`~repro.placement.ring.Placement` and delegates
  every lookup to the currently-active ring, so a
  :class:`~repro.cluster.faults.RebalanceFault` can decommission servers
  (and readmit them) while clients keep routing through the same object.
  Strategies consult the placement at prepare time, so requests issued
  after a swap use the new replica sets while in-flight requests finish
  where they were sent -- in the simulation and over live TCP alike.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from .ring import Placement


@dataclasses.dataclass(frozen=True)
class PlacementDelta:
    """What changed between two placements over a sampled keyspace.

    ``affected_fraction`` is the fraction of keys whose *old* replica set
    intersected the departed/changed servers -- the theoretical minimum a
    rebalance must touch.  A minimal-movement placement keeps
    ``moved_fraction <= affected_fraction`` (equality when every affected
    group changes).
    """

    n_keys: int
    #: Partitions whose replica group changed at all.
    changed_partitions: int
    #: Keys whose replica set changed at all.
    moved_keys: int
    #: Keys whose *primary* replica changed.
    primary_moved_keys: int
    #: Keys whose old replica set intersected the changed servers.
    affected_keys: int
    #: Per-server partition-count gains (new groups joined).
    gained: _t.Dict[int, int]
    #: Per-server partition-count losses (groups departed).
    lost: _t.Dict[int, int]

    @property
    def moved_fraction(self) -> float:
        """Fraction of sampled keys whose replica set changed."""
        return self.moved_keys / self.n_keys if self.n_keys else 0.0

    @property
    def primary_moved_fraction(self) -> float:
        """Fraction of sampled keys whose primary replica changed."""
        return self.primary_moved_keys / self.n_keys if self.n_keys else 0.0

    @property
    def affected_fraction(self) -> float:
        """Theoretical minimum fraction a rebalance had to touch."""
        return self.affected_keys / self.n_keys if self.n_keys else 0.0

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        """JSON-friendly form for ``repro ring --exclude`` and tests."""
        return {
            "n_keys": self.n_keys,
            "changed_partitions": self.changed_partitions,
            "moved_keys": self.moved_keys,
            "primary_moved_keys": self.primary_moved_keys,
            "affected_keys": self.affected_keys,
            "moved_fraction": self.moved_fraction,
            "primary_moved_fraction": self.primary_moved_fraction,
            "affected_fraction": self.affected_fraction,
            "gained": dict(sorted(self.gained.items())),
            "lost": dict(sorted(self.lost.items())),
        }


def placement_delta(
    old: Placement, new: Placement, n_keys: int
) -> PlacementDelta:
    """Compare two placements over the keyspace ``[0, n_keys)``.

    Both placements must share the partition count and key -> partition
    mapping (membership changes never re-key); the delta is computed per
    partition and weighted by how many sampled keys each partition owns.
    """
    if old.n_partitions != new.n_partitions:
        raise ValueError(
            f"partition counts differ: {old.n_partitions} vs {new.n_partitions}"
        )
    if n_keys <= 0:
        raise ValueError("n_keys must be positive")
    changed_servers: _t.Set[int] = set()
    gained: _t.Dict[int, int] = {}
    lost: _t.Dict[int, int] = {}
    changed_partitions = 0
    partition_changed: _t.List[bool] = []
    partition_primary_changed: _t.List[bool] = []
    partition_affected_by: _t.List[_t.FrozenSet[int]] = []
    for p in range(old.n_partitions):
        before = old.replicas_of(p)
        after = new.replicas_of(p)
        partition_changed.append(set(before) != set(after))
        partition_primary_changed.append(before[0] != after[0])
        partition_affected_by.append(frozenset(before))
        if partition_changed[-1]:
            changed_partitions += 1
            for s in set(after) - set(before):
                gained[s] = gained.get(s, 0) + 1
            for s in set(before) - set(after):
                lost[s] = lost.get(s, 0) + 1
                changed_servers.add(s)
    moved_keys = primary_moved = affected = 0
    for key in range(n_keys):
        p = old.partition_of(key)
        if new.partition_of(key) != p:
            raise ValueError(
                f"placements disagree on partition_of({key}); deltas are "
                "only meaningful for membership changes, not re-keying"
            )
        if partition_changed[p]:
            moved_keys += 1
        if partition_primary_changed[p]:
            primary_moved += 1
        if partition_affected_by[p] & changed_servers:
            affected += 1
    return PlacementDelta(
        n_keys=n_keys,
        changed_partitions=changed_partitions,
        moved_keys=moved_keys,
        primary_moved_keys=primary_moved,
        affected_keys=affected,
        gained=gained,
        lost=lost,
    )


class MutablePlacement(Placement):
    """A placement whose ring membership can change mid-run.

    Wraps a base placement and delegates all lookups to the currently
    *active* ring.  :meth:`exclude` decommissions servers (the active ring
    becomes ``base.without_servers(excluded)``); :meth:`readmit` brings
    them back.  Exclusions are *reference counted*: excluding server 2
    and then servers (2, 5) yields the base ring minus both, and the
    first readmit of 2 leaves it excluded until the second -- so
    overlapping rebalance windows that share a server nest correctly,
    each window reverting exactly what it applied.

    Everything that consults the placement per request (strategy
    ``prepare``, hedging's replica walk, the credits sub-task pinning)
    observes swaps immediately; static snapshots taken at build time (the
    model realization's per-server partition lists) intentionally do not,
    which mirrors how a real decommission drains routing before data.
    """

    def __init__(self, base: Placement) -> None:
        self.base = base
        #: Exclusion reference counts per server id.
        self._counts: _t.Dict[int, int] = {}
        #: Per-partition extra replicas (remediation's spread lever).
        self._boosts: _t.Dict[int, _t.Tuple[int, ...]] = {}
        self.active: Placement = base
        #: Ring rebuilds applied so far (audit counter).
        self.swaps = 0
        #: Key -> partition does not depend on membership ("data does not
        #: re-key"), so every lookup goes straight to the base ring: its
        #: memo stays warm across swaps and needs no invalidation.
        self.partition_of = base.partition_of

    # -- Placement surface --------------------------------------------------
    @property
    def n_partitions(self) -> int:  # type: ignore[override]
        """Partition count (invariant across membership changes)."""
        return self.active.n_partitions

    @property
    def n_servers(self) -> int:  # type: ignore[override]
        """Server id-space size (invariant across membership changes)."""
        return self.active.n_servers

    @property
    def replication_factor(self) -> int:  # type: ignore[override]
        """Replication factor of the active ring."""
        return self.active.replication_factor

    def replicas_of(self, partition: int) -> _t.Tuple[int, ...]:
        """The *currently eligible* replica set of one partition.

        A boosted partition's set is the active ring's replicas plus the
        boost's extra servers (minus any currently excluded), so every
        per-request consumer -- strategy ``prepare``, hedging's replica
        walk, credits sub-task pinning -- sees the widened choice set
        immediately.
        """
        replicas = self.active.replicas_of(partition)
        if self._boosts:
            extras = self._boosts.get(partition)
            if extras:
                replicas = replicas + tuple(
                    s
                    for s in extras
                    if s not in replicas and s not in self._counts
                )
        return replicas

    def validate(self) -> None:
        """Validate the active ring's structural invariants."""
        self.active.validate()

    # -- membership changes -------------------------------------------------
    @property
    def excluded(self) -> _t.Tuple[int, ...]:
        """Server ids currently decommissioned, sorted."""
        return tuple(sorted(self._counts))

    def exclude(self, servers: _t.Iterable[int]) -> None:
        """Decommission ``servers``: re-home their partitions to survivors.

        A server already excluded by an overlapping window just gains a
        reference; it rejoins only when every window holding it reverts.
        """
        counts = dict(self._counts)
        for s in (int(s) for s in servers):
            counts[s] = counts.get(s, 0) + 1
        self._apply(counts)

    def readmit(self, servers: _t.Iterable[int]) -> None:
        """Drop one exclusion reference per server (revert of a window)."""
        counts = dict(self._counts)
        for s in (int(s) for s in servers):
            count = counts.get(s, 0)
            if count == 0:
                raise ValueError(f"server {s} is not excluded")
            if count == 1:
                del counts[s]
            else:
                counts[s] = count - 1
        self._apply(counts)

    # -- replica spreading (the hot-shard remediation lever) ----------------
    @property
    def boosted(self) -> _t.Dict[int, _t.Tuple[int, ...]]:
        """Partitions currently carrying extra replicas."""
        return dict(self._boosts)

    def boost(self, partition: int, extras: _t.Iterable[int]) -> None:
        """Widen ``partition``'s replica set with ``extras``.

        The spread remediation for a popularity hot shard: exclusion
        cannot help there (the hot partition keeps exactly
        ``replication_factor`` replicas while the ring loses capacity),
        but extra replicas let the selection strategies route the heat
        across more servers.  Servers must exist in the id space; one
        boost per partition at a time (re-boosting replaces the set).
        """
        extras = tuple(dict.fromkeys(int(s) for s in extras))
        if not (0 <= partition < self.n_partitions):
            raise ValueError(f"partition {partition} out of range")
        for s in extras:
            if not (0 <= s < self.n_servers):
                raise ValueError(f"server {s} out of range")
        if not extras:
            raise ValueError("boost needs at least one extra server")
        self._boosts[partition] = extras
        self.swaps += 1

    def unboost(self, partition: int) -> None:
        """Drop ``partition``'s extra replicas (revert of a boost)."""
        if partition not in self._boosts:
            raise ValueError(f"partition {partition} is not boosted")
        del self._boosts[partition]
        self.swaps += 1

    def _apply(self, counts: _t.Dict[int, int]) -> None:
        """Swap in the ring for ``counts``, atomically (raise = no change)."""
        excluded = tuple(sorted(counts))
        active = (
            self.base.without_servers(excluded) if excluded else self.base
        )
        self._counts = counts
        self.active = active
        self.swaps += 1

    def __repr__(self) -> str:
        suffix = f", excluded={list(self.excluded)}" if self._counts else ""
        return f"MutablePlacement({self.base!r}{suffix})"
