"""Cluster specification: the static shape of the backend tier.

Bundles the knobs of Section 2.2's setup (9 servers, 4 cores each,
replication factor R, 50 us one-way latency) and the derived quantities
the controller and the harness need (per-server capacity, placement).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..placement import ConsistentHashRing, Placement, RingPlacement
from .network import ConstantLatency, LatencyModel, PAPER_ONE_WAY_LATENCY


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Static description of the backend tier."""

    n_servers: int = 9
    cores_per_server: int = 4
    replication_factor: int = 3
    per_core_rate: float = 3500.0
    one_way_latency: float = PAPER_ONE_WAY_LATENCY
    #: "ring" (one partition per server) or "chash" (vnode consistent hash).
    placement_kind: str = "ring"
    n_partitions: _t.Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if self.cores_per_server <= 0:
            raise ValueError("cores_per_server must be positive")
        if not (1 <= self.replication_factor <= self.n_servers):
            raise ValueError("need 1 <= replication_factor <= n_servers")
        if self.per_core_rate <= 0:
            raise ValueError("per_core_rate must be positive")
        if self.one_way_latency < 0:
            raise ValueError("one_way_latency must be non-negative")
        if self.placement_kind not in ("ring", "chash"):
            raise ValueError(f"unknown placement kind {self.placement_kind!r}")

    # -- derived ---------------------------------------------------------------
    def make_placement(self) -> Placement:
        if self.placement_kind == "ring":
            return RingPlacement(
                n_servers=self.n_servers,
                replication_factor=self.replication_factor,
                n_partitions=self.n_partitions,
            )
        return ConsistentHashRing(
            n_servers=self.n_servers,
            replication_factor=self.replication_factor,
            n_partitions=self.n_partitions or 8 * self.n_servers,
        )

    def make_latency_model(self) -> LatencyModel:
        """Constant one-way latency (``NetworkJitterFault`` windows add the
        jitter)."""
        return ConstantLatency(self.one_way_latency)

    def server_capacity(self) -> float:
        """Nominal requests/second one server sustains (all cores)."""
        return self.cores_per_server * self.per_core_rate

    def server_capacities(self) -> _t.Dict[int, float]:
        """Per-server capacity map, as the credits controller wants it."""
        return {s: self.server_capacity() for s in range(self.n_servers)}
