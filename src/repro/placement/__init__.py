"""Replica placement: sharding, consistent hashing, rebalancing.

The placement layer decides *which servers are eligible* to serve each
key: keys hash to partitions, partitions map to replica groups of
``replication_factor`` distinct servers, and every dispatch strategy
(C3, hedging, the BRB realizations) selects among exactly that group --
in the simulation and over live TCP alike.  See ``docs/architecture.md``
for where this layer sits in the stack.

Public surface:

* :class:`Placement` and its rings (:class:`RingPlacement`,
  :class:`ConsistentHashRing`, :class:`ExplicitPlacement`) --
  deterministic key -> replica-set mapping;
* :class:`MutablePlacement` / :func:`placement_delta` -- mid-run
  membership changes and movement accounting (the ``ring-rebalance``
  scenario and ``repro ring --exclude``);
* :func:`ring_report` / :func:`keys_in_partitions` -- ownership
  inspection behind ``repro ring`` and the hot-shard workload.
"""

from .inspect import (
    RingReport,
    ServerOwnership,
    keys_in_partitions,
    ring_report,
)
from .rebalance import MutablePlacement, PlacementDelta, placement_delta
from .ring import (
    ConsistentHashRing,
    ExplicitPlacement,
    Placement,
    RingPlacement,
    stable_hash,
)

__all__ = [
    "ConsistentHashRing",
    "ExplicitPlacement",
    "MutablePlacement",
    "Placement",
    "PlacementDelta",
    "RingPlacement",
    "RingReport",
    "ServerOwnership",
    "keys_in_partitions",
    "placement_delta",
    "ring_report",
    "stable_hash",
]
