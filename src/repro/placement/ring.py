"""Replica placement rings: key -> partition -> replica set.

This module is the data-placement core of the reproduction (see
``docs/architecture.md``).  The paper's system model is a set of
*flexible* servers, each belonging to R replica groups; a replica group
is the set of servers holding copies of one data partition; R is the
replication factor, and reads use 1-out-of-R.  Every dispatch strategy
(C3, hedging, the BRB realizations) selects a replica among the
*eligible* servers a placement reports for a key -- never among the whole
cluster -- so the placement layer, not the strategy, decides which
servers can possibly absorb a request.

Three placements are provided:

* :class:`RingPlacement` -- the classic token ring: partition ``p`` is
  replicated on servers ``p, p+1, ..., p+R-1 (mod N)``.  With one
  partition per server, every server belongs to exactly R groups, which
  is the paper's model.
* :class:`ConsistentHashRing` -- virtual-node consistent hashing, for
  ablations with many partitions per server, realistic key -> token
  mapping, and minimal-movement rebalancing (see
  :meth:`Placement.without_servers`).
* :class:`ExplicitPlacement` -- hand-pinned keys for worked examples.

All placements are deterministic: the same constructor arguments produce
the same replica sets in every process (``stable_hash`` is SHA-256-based,
never Python's randomized ``hash``).
"""

from __future__ import annotations

import bisect
import hashlib
import typing as _t


def stable_hash(value: _t.Union[int, str], salt: str = "") -> int:
    """Deterministic 64-bit hash, stable across processes and runs.

    Python's built-in ``hash`` is randomized per process for strings and is
    identity-like for small ints; neither is acceptable for reproducible
    placement, so keys are run through SHA-256.
    """
    digest = hashlib.sha256(f"{salt}:{value}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Placement:
    """Interface: key -> partition -> replica servers.

    ``n_servers`` is the size of the server *id space* (ids are
    ``0..n_servers-1``); a placement built over a membership subset (see
    :meth:`without_servers`) keeps the id space but stops mapping
    partitions onto the absent servers.
    """

    n_partitions: int
    n_servers: int
    replication_factor: int

    def partition_of(self, key: int) -> int:  # pragma: no cover - abstract
        """Partition (replica group id) that owns ``key``."""
        raise NotImplementedError

    def replicas_of(self, partition: int) -> _t.Tuple[int, ...]:  # pragma: no cover
        """Server ids holding ``partition``, primary first."""
        raise NotImplementedError

    # -- derived helpers ----------------------------------------------------
    def replicas_of_key(self, key: int) -> _t.Tuple[int, ...]:
        """The eligible replica set for one key (primary first)."""
        return self.replicas_of(self.partition_of(key))

    def partitions_of_server(self, server_id: int) -> _t.List[int]:
        """Partitions (replica groups) a server belongs to."""
        return [
            p
            for p in range(self.n_partitions)
            if server_id in self.replicas_of(p)
        ]

    def without_servers(self, excluded: _t.Iterable[int]) -> "Placement":
        """A new placement with ``excluded`` servers removed from the ring.

        The key -> partition mapping is unchanged (data does not re-key);
        only the partition -> replica mapping shifts, which is what a
        rebalance after a decommission does.  Subclasses implement the
        movement semantics; consistent hashing guarantees minimal movement
        (only groups that contained an excluded server change).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support membership changes"
        )

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for p in range(self.n_partitions):
            replicas = self.replicas_of(p)
            if len(replicas) != self.replication_factor:
                raise ValueError(
                    f"partition {p} has {len(replicas)} replicas, "
                    f"expected {self.replication_factor}"
                )
            if len(set(replicas)) != len(replicas):
                raise ValueError(f"partition {p} has duplicate replicas {replicas}")
            for s in replicas:
                if not (0 <= s < self.n_servers):
                    raise ValueError(f"partition {p} references bad server {s}")


def _normalize_excluded(
    excluded: _t.Iterable[int], n_servers: int, already: _t.Container[int] = ()
) -> _t.Tuple[int, ...]:
    """Validated, sorted tuple of server ids to remove from a ring."""
    ids = tuple(sorted({int(s) for s in excluded}))
    for s in ids:
        if not (0 <= s < n_servers):
            raise ValueError(f"cannot exclude unknown server {s}")
        if s in already:
            raise ValueError(f"server {s} is already excluded")
    return ids


class ExplicitPlacement(Placement):
    """Hand-specified placement for worked examples and tests.

    Used by the Figure 1 toy reproduction, where the paper pins specific
    keys to specific servers (S1=[A,E], S2=[B,C], S3=[D]).
    """

    def __init__(
        self,
        key_to_partition: _t.Mapping[int, int],
        partition_replicas: _t.Sequence[_t.Sequence[int]],
        n_servers: int,
    ) -> None:
        if not partition_replicas:
            raise ValueError("need at least one partition")
        if n_servers <= 0:
            raise ValueError("n_servers must be positive")
        sizes = {len(r) for r in partition_replicas}
        if len(sizes) != 1:
            raise ValueError("all partitions must have the same replication factor")
        self._key_to_partition = dict(key_to_partition)
        self._groups = [tuple(r) for r in partition_replicas]
        self.n_partitions = len(self._groups)
        self.n_servers = int(n_servers)
        self.replication_factor = sizes.pop()
        for key, partition in self._key_to_partition.items():
            if not (0 <= partition < self.n_partitions):
                raise ValueError(f"key {key} maps to bad partition {partition}")

    def partition_of(self, key: int) -> int:
        """Look the key up in the pinned map (unknown keys are an error)."""
        try:
            return self._key_to_partition[key]
        except KeyError:
            raise KeyError(f"key {key} has no explicit placement") from None

    def replicas_of(self, partition: int) -> _t.Tuple[int, ...]:
        """The pinned replica group of one partition."""
        if not (0 <= partition < self.n_partitions):
            raise ValueError(f"partition {partition} out of range")
        return self._groups[partition]

    def __repr__(self) -> str:
        return (
            f"ExplicitPlacement(n_partitions={self.n_partitions}, "
            f"n_servers={self.n_servers})"
        )


#: Distinct keys a ring remembers the partition of: what an 8,192-slot
#: ``dict`` holds before it doubles (0.15 MB, as much again for the keys).
#: Under a skewed popularity the first keys seen are the hot ones, so this
#: keeps most of an unbounded memo's hits (50% of lookups against 73% on
#: the steady-state trace) -- and a finished run's ring lives until the
#: cycle collector finds the clients that point at it, so several of these
#: are alive at a peak.
MEMO_KEYS = 5_461


class _KeyPartitions(dict):
    """key -> partition, hashed on the first access and kept (for the first
    ``MEMO_KEYS`` distinct keys): a known key costs one ``dict`` subscript."""

    __slots__ = ("salt", "n_partitions")

    def __init__(self, salt: str, n_partitions: int) -> None:
        super().__init__()
        self.salt = salt
        self.n_partitions = n_partitions

    def __missing__(self, key: int) -> int:
        partition = stable_hash(key, self.salt) % self.n_partitions
        if len(self) < MEMO_KEYS:
            self[key] = partition
        return partition


class _HashedPlacement(Placement):
    """What the two hashing rings share.

    Keys hash to partitions independently of membership, so the key ->
    partition memo is never invalidated (a membership change builds a
    *new* ring, :meth:`without_servers`); replica groups are precomputed
    because the object is immutable.
    """

    #: Replica group per partition, filled by the subclass constructor.
    _groups: _t.List[_t.Tuple[int, ...]]

    def __init__(
        self,
        n_servers: int,
        replication_factor: int,
        n_partitions: int,
        salt: str,
        key_salt: str,
        excluded: _t.Iterable[int],
    ) -> None:
        if n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if n_partitions < 1:
            raise ValueError("n_partitions must be positive")
        self.n_servers = int(n_servers)
        self.excluded = _normalize_excluded(excluded, self.n_servers)
        available = self.n_servers - len(self.excluded)
        if not (1 <= replication_factor <= available):
            raise ValueError(
                f"need 1 <= replication_factor <= {available} live servers, "
                f"got {replication_factor}"
            )
        self.replication_factor = int(replication_factor)
        self.n_partitions = int(n_partitions)
        self.salt = salt
        self._partitions = _KeyPartitions(key_salt, self.n_partitions)

    def _compute_replicas(self, partition: int) -> _t.Tuple[int, ...]:
        raise NotImplementedError  # pragma: no cover - abstract

    def partition_of(self, key: int) -> int:
        """Hash the key onto a partition (membership-independent, memoised)."""
        return self._partitions[key]

    def replicas_of(self, partition: int) -> _t.Tuple[int, ...]:
        """The precomputed replica group of one partition."""
        if not (0 <= partition < self.n_partitions):
            raise ValueError(f"partition {partition} out of range")
        return self._groups[partition]

    def _ring_kwargs(self) -> _t.Dict[str, _t.Any]:
        """Constructor arguments that rebuild this ring (sans ``excluded``)."""
        return {
            "n_servers": self.n_servers,
            "replication_factor": self.replication_factor,
            "n_partitions": self.n_partitions,
            "salt": self.salt,
        }

    def without_servers(self, excluded: _t.Iterable[int]) -> "_HashedPlacement":
        """The same ring minus ``excluded`` (see the subclass for movement)."""
        extra = _normalize_excluded(excluded, self.n_servers, self.excluded)
        return type(self)(excluded=self.excluded + extra, **self._ring_kwargs())

    def __repr__(self) -> str:
        args = ", ".join(
            f"{name}={value}"
            for name, value in self._ring_kwargs().items()
            if name != "salt"
        )
        suffix = f", excluded={list(self.excluded)}" if self.excluded else ""
        return f"{type(self).__name__}({args}{suffix})"


class RingPlacement(_HashedPlacement):
    """Token-ring placement: one token per server, successor replication.

    ``excluded`` removes servers from the ring without renumbering the
    survivors: the successor walk skips excluded ids, so partitions that
    listed an excluded server fall through to the next live successor --
    the mod-N analogue of a node decommission.
    """

    def __init__(
        self,
        n_servers: int,
        replication_factor: int = 3,
        n_partitions: _t.Optional[int] = None,
        salt: str = "ring",
        excluded: _t.Iterable[int] = (),
    ) -> None:
        super().__init__(
            n_servers,
            replication_factor,
            n_partitions if n_partitions else n_servers,
            salt,
            salt,
            excluded,
        )
        self._groups = [self._compute_replicas(p) for p in range(self.n_partitions)]

    def _compute_replicas(self, partition: int) -> _t.Tuple[int, ...]:
        """The R live successors of the partition's home token."""
        first = partition % self.n_servers
        replicas: _t.List[int] = []
        for step in range(self.n_servers):
            candidate = (first + step) % self.n_servers
            if candidate in self.excluded:
                continue
            replicas.append(candidate)
            if len(replicas) == self.replication_factor:
                break
        return tuple(replicas)


class ConsistentHashRing(_HashedPlacement):
    """Consistent hashing with virtual nodes.

    Each server owns ``vnodes`` points on a 64-bit ring; a partition's
    primary is the owner of the first point clockwise from the partition's
    token, and the R-1 successors (skipping duplicates of the same server)
    complete the replica group.

    Removing a server (``excluded`` / :meth:`without_servers`) removes
    only that server's points, so every replica group that did not contain
    it is provably unchanged -- the minimal-movement property the
    placement property tests pin down.
    """

    def __init__(
        self,
        n_servers: int,
        replication_factor: int = 3,
        n_partitions: int = 64,
        vnodes: int = 16,
        salt: str = "chash",
        excluded: _t.Iterable[int] = (),
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        super().__init__(
            n_servers, replication_factor, n_partitions, salt, salt + ":key", excluded
        )
        self.vnodes = int(vnodes)
        points: _t.List[_t.Tuple[int, int]] = []
        for server in range(self.n_servers):
            if server in self.excluded:
                continue
            for v in range(self.vnodes):
                points.append((stable_hash(f"{server}:{v}", salt), server))
        points.sort()
        self._tokens = [t for t, _ in points]
        self._owners = [s for _, s in points]
        self._groups = [self._compute_replicas(p) for p in range(self.n_partitions)]

    def _compute_replicas(self, partition: int) -> _t.Tuple[int, ...]:
        """Walk clockwise from the partition token, collecting R owners."""
        token = stable_hash(f"partition:{partition}", self.salt)
        idx = bisect.bisect_right(self._tokens, token) % len(self._tokens)
        replicas: _t.List[int] = []
        steps = 0
        while len(replicas) < self.replication_factor and steps < len(self._owners):
            owner = self._owners[(idx + steps) % len(self._owners)]
            if owner not in replicas:
                replicas.append(owner)
            steps += 1
        return tuple(replicas)

    def _ring_kwargs(self) -> _t.Dict[str, _t.Any]:
        return {**super()._ring_kwargs(), "vnodes": self.vnodes}
