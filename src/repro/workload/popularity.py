"""Key-popularity models: which keys a task touches.

Real key-value workloads are skewed (a few hot keys absorb much of the
traffic); skew concentrates load on the replica groups owning hot
partitions, which is exactly the regime where task-aware scheduling and
load-aware replica selection matter.  Keys are integers in ``[0, n_keys)``;
the cluster's partitioner maps them onto replica groups.
"""

from __future__ import annotations

import functools
import typing as _t

from ..sim.rng import Stream

#: Seed of the keyspace permutation behind :class:`ZipfPopularity`: fixed,
#: so a key's popularity rank is the same in every run.
PERM_SEED = 1234


@functools.lru_cache(maxsize=4)
def _permutation(n_keys: int) -> _t.Tuple[int, ...]:
    """The keyspace shuffled by ``Stream(PERM_SEED)``, built once per
    process: a pure function of its key (the stream's name is a label, it
    does not enter the seed), shared by every model that asks, and a tuple
    so that no caller can change it under another.  Four entries bound a
    sweep over keyspaces."""
    keys = list(range(n_keys))
    Stream(PERM_SEED).shuffle(keys)
    return tuple(keys)


class PopularityModel:
    """Interface: ``sample_key(stream) -> int`` in ``[0, n_keys)``."""

    n_keys: int

    def sample_key(self, stream: Stream) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def sample_block(self, stream: Stream, n: int) -> _t.List[int]:
        """Pre-draw ``n`` keys in one call.

        Byte-identical to ``n`` sequential :meth:`sample_key` calls (it
        *is* ``n`` sequential calls, with the dispatch hoisted out of the
        caller).  The task generator buffers popularity draws through
        this so a trace pays the model dispatch once per block.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        draw = self.sample_key
        return [draw(stream) for _ in range(n)]

    def sample_distinct(
        self,
        stream: Stream,
        count: int,
        next_key: _t.Optional[_t.Callable[[], int]] = None,
    ) -> _t.List[int]:
        """Draw ``count`` *distinct* keys (a task never re-reads a key).

        Falls back to sequential fill if the keyspace is nearly exhausted,
        which keeps the method total for tiny test keyspaces.

        ``next_key`` optionally overrides where draws come from -- the
        task generator passes its block-buffered drawer so there is
        exactly ONE copy of this algorithm (attempt limit, dense
        fallback, set insertion order) and buffering cannot fork the
        fixed-seed determinism.  A ``next_key`` source must produce the
        same sequence ``self.sample_key(stream)`` would.
        """
        if count > self.n_keys:
            raise ValueError(f"cannot draw {count} distinct keys from {self.n_keys}")
        draw = next_key if next_key is not None else (
            lambda: self.sample_key(stream)
        )
        seen: _t.Set[int] = set()
        attempts = 0
        limit = 20 * count + 100
        while len(seen) < count and attempts < limit:
            seen.add(draw())
            attempts += 1
        if len(seen) < count:
            # Dense fallback: fill with the coldest unused keys.
            for key in range(self.n_keys):
                if key not in seen:
                    seen.add(key)
                    if len(seen) == count:
                        break
        return list(seen)


class ZipfPopularity(PopularityModel):
    """Zipf-distributed ranks mapped to a seeded permutation of the keyspace.

    The permutation decouples popularity rank from key id, so hot keys are
    spread across partitions the way a real hash-partitioned store would
    see them (otherwise all hot keys would land in partition 0).
    """

    def __init__(self, n_keys: int, skew: float = 0.9) -> None:
        if n_keys <= 0:
            raise ValueError("n_keys must be positive")
        if skew <= 0:
            raise ValueError("skew must be positive")
        self.n_keys = int(n_keys)
        self.skew = float(skew)
        self._perm = _permutation(self.n_keys)

    def sample_key(self, stream: Stream) -> int:
        rank = stream.zipf(self.n_keys, self.skew)
        return self._perm[rank]

    def sample_block(self, stream: Stream, n: int) -> _t.List[int]:
        """``n`` keys from one :meth:`~repro.sim.rng.Stream.zipf_block`:
        the same ranks ``n`` :meth:`sample_key` calls draw."""
        if n < 0:
            raise ValueError("n must be non-negative")
        perm = self._perm
        return [perm[rank] for rank in stream.zipf_block(self.n_keys, self.skew, n)]

    def __repr__(self) -> str:
        return f"ZipfPopularity(n_keys={self.n_keys}, skew={self.skew})"


class SubsetHotspotPopularity(PopularityModel):
    """Concentrate ``weight`` of the traffic on an explicit key subset.

    The placement-aware skew behind the ``hot-shard`` scenario: the hot
    subset is chosen as the keys one replica group owns (see
    :func:`repro.placement.keys_in_partitions`), so the heat lands on a
    *specific* replica set instead of spreading hash-uniformly the way
    :class:`ZipfPopularity`'s permutation deliberately does.  Draws
    outside the hot branch fall through to the base model (and may also
    hit hot keys; the subset's effective weight is therefore a floor).
    """

    def __init__(
        self,
        base: PopularityModel,
        hot_keys: _t.Sequence[int],
        weight: float = 0.5,
    ) -> None:
        if not hot_keys:
            raise ValueError("hot subset is empty")
        if not (0.0 < weight < 1.0):
            raise ValueError("weight must be in (0, 1)")
        for key in hot_keys:
            if not (0 <= key < base.n_keys):
                raise ValueError(f"hot key {key} outside base keyspace")
        self.base = base
        self.n_keys = base.n_keys
        self.hot_keys = list(hot_keys)
        self.weight = float(weight)

    def sample_key(self, stream: Stream) -> int:
        """Hot subset with probability ``weight``, else the base model."""
        if stream.random() < self.weight:
            return self.hot_keys[stream.randrange(len(self.hot_keys))]
        return self.base.sample_key(stream)

    def __repr__(self) -> str:
        return (
            f"SubsetHotspotPopularity(base={self.base!r}, "
            f"n_hot={len(self.hot_keys)}, weight={self.weight})"
        )
