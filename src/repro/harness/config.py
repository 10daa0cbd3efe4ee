"""Experiment configuration: everything a run needs, in one dataclass.

An :class:`ExperimentConfig` fully determines a simulation run together
with a seed.  The defaults are the paper's Section 2.2 setup with the task
count scaled down (see DESIGN.md, substitutions table); ``repro record
--tasks 500000 --seeds 6`` restores paper scale for the recorded artifacts.

Strategy names resolve through the builder table
(:mod:`repro.harness.builders`), whose names ``KNOWN_STRATEGIES`` lists.
Fault injection is expressed as a
:class:`~repro.cluster.faults.FaultSchedule` (``fault_schedule``).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..cluster.faults import FaultSchedule, NO_FAULTS
from ..cluster.topology import ClusterSpec
from ..core.credits import DEFAULT_EPOCH
from ..workload.calibration import ServiceTimeModel, calibrate_service_model
from ..workload.popularity import SubsetHotspotPopularity
from ..workload.soundcloud import (
    PAPER_CLIENTS,
    PAPER_LOAD,
    PAPER_MEAN_FANOUT,
    SoundCloudWorkload,
    make_soundcloud_workload,
)
from ..workload.valuesize import atikoglu_etc
from .builders import KNOWN_STRATEGIES

#: The five series the paper's Figure 2 plots, in its legend order.
FIGURE2_STRATEGIES: _t.Tuple[str, ...] = (
    "c3",
    "equalmax-credits",
    "equalmax-model",
    "unifincr-credits",
    "unifincr-model",
)

#: Fraction of earliest tasks excluded from statistics (cold start).
WARMUP_FRACTION = 0.05
#: Fraction of key draws a ``hot_shard`` config redirects to that
#: partition's keys.
HOT_SHARD_WEIGHT = 0.4


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified experiment (modulo the seed)."""

    strategy: str = "c3"
    n_tasks: int = 20_000
    cluster: ClusterSpec = dataclasses.field(default_factory=ClusterSpec)
    load: float = PAPER_LOAD
    mean_fanout: float = PAPER_MEAN_FANOUT
    n_keys: int = 100_000
    zipf_skew: float = 0.9
    playlist_fraction: float = 0.25
    #: Placement-aware hotspot: concentrate ``HOT_SHARD_WEIGHT`` of key
    #: draws on the keys this partition's replica group owns (None
    #: disables; the hot-shard scenarios set it).
    hot_shard: _t.Optional[int] = None
    #: Credits realization knobs (the epoch is the controller's
    #: ``DEFAULT_EPOCH``, which bounds the interval).
    credits_measurement_interval: float = 0.1
    congestion_check_interval: float = 0.1
    #: Scripted fault events (slowdowns, crashes, jitter, flash crowds).
    fault_schedule: FaultSchedule = NO_FAULTS
    #: Name of the scenario this config was derived from (provenance only).
    scenario: _t.Optional[str] = None
    #: Streamed metrics + self-healing: "off" (no bus, no extra events),
    #: "monitor" (bus + breach detection, no action -- the honest
    #: baseline) or "slo" (full remediation loop).
    remediation: str = "off"
    #: Windowed-p99 SLO target in model milliseconds (breach detection
    #: needs it; required for remediation="slo").
    slo_p99_ms: _t.Optional[float] = None
    #: Fraction of (post-warmup) tasks to trace as span trees; 0 disables
    #: tracing entirely (no recorder, no observers -- the default).
    trace_sample: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in KNOWN_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; known: {KNOWN_STRATEGIES}"
            )
        if self.n_tasks <= 0:
            raise ValueError("n_tasks must be positive")
        if not (0.0 < self.load):
            raise ValueError("load must be positive")
        if self.n_keys <= 0:
            raise ValueError("n_keys must be positive")
        if self.mean_fanout <= 1.0:
            raise ValueError("mean_fanout must exceed 1")
        if self.zipf_skew <= 0:
            raise ValueError("zipf_skew must be positive")
        if not (0.0 <= self.playlist_fraction < 1.0):
            raise ValueError("playlist_fraction must be in [0, 1)")
        if not (0.0 < self.credits_measurement_interval <= DEFAULT_EPOCH):
            raise ValueError(
                f"credits_measurement_interval must be in (0, {DEFAULT_EPOCH}] "
                "(the credits epoch)"
            )
        if self.congestion_check_interval <= 0:
            raise ValueError("congestion_check_interval must be positive")
        if self.hot_shard is not None:
            n_partitions = self.cluster.make_placement().n_partitions
            if not (0 <= self.hot_shard < n_partitions):
                raise ValueError(
                    f"hot_shard {self.hot_shard} out of range; the cluster's "
                    f"placement has partitions 0..{n_partitions - 1}"
                )
        if not isinstance(self.fault_schedule, FaultSchedule):
            raise TypeError("fault_schedule must be a FaultSchedule")
        self.fault_schedule.validate_targets(self.cluster.n_servers)
        from ..cluster.remediation import REMEDIATION_MODES

        if self.remediation not in REMEDIATION_MODES:
            raise ValueError(
                f"unknown remediation mode {self.remediation!r}; "
                f"known: {REMEDIATION_MODES}"
            )
        if self.remediation == "slo" and self.slo_p99_ms is None:
            raise ValueError('remediation="slo" needs a slo_p99_ms target')
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise ValueError("slo_p99_ms must be positive")
        if not (0.0 <= self.trace_sample <= 1.0):
            raise ValueError("trace_sample must be in [0, 1]")

    # -- derived ---------------------------------------------------------------
    def workload(self) -> SoundCloudWorkload:
        """The workload this config implies (shared across strategies).

        With ``hot_shard`` set, the popularity model is wrapped so that
        ``HOT_SHARD_WEIGHT`` of key draws land on the keys that
        partition's replica group owns -- heat aimed at a specific
        replica set rather than spread hash-uniformly.
        """
        workload = make_soundcloud_workload(
            n_tasks=self.n_tasks,
            n_servers=self.cluster.n_servers,
            cores_per_server=self.cluster.cores_per_server,
            per_core_rate=self.cluster.per_core_rate,
            load=self.load,
            mean_fanout=self.mean_fanout,
            n_keys=self.n_keys,
            zipf_skew=self.zipf_skew,
            playlist_fraction=self.playlist_fraction,
        )
        if self.hot_shard is not None:
            from ..placement import keys_in_partitions

            hot_keys = keys_in_partitions(
                self.cluster.make_placement(), self.n_keys, (self.hot_shard,)
            )
            workload = dataclasses.replace(
                workload,
                popularity=SubsetHotspotPopularity(
                    workload.popularity, hot_keys, HOT_SHARD_WEIGHT
                ),
            )
        return workload

    def service_model(self) -> ServiceTimeModel:
        """``workload().service_model`` without the trace models: all a
        server needs, so a forked server neither builds nor keeps the
        keyspace permutation."""
        return calibrate_service_model(
            atikoglu_etc(), target_rate=self.cluster.per_core_rate
        )

    def with_strategy(self, strategy: str) -> "ExperimentConfig":
        """Same experiment, different strategy (workload identical)."""
        return dataclasses.replace(self, strategy=strategy)

    def describe(self) -> str:
        origin = f" [{self.scenario}]" if self.scenario else ""
        return (
            f"{self.strategy}{origin}: {self.n_tasks} tasks, "
            f"{PAPER_CLIENTS} clients, "
            f"{self.cluster.n_servers}x{self.cluster.cores_per_server} cores, "
            f"load={self.load:.0%}, fanout~{self.mean_fanout}"
        )
