"""The scenario library: ``SCENARIOS``, the fixed table of named scenarios.

Fifteen named workload scenarios covering the paper's evaluation, the
fault shapes tail-latency systems are judged on, the placement
pathologies sharded stores hit at scale, and the self-healing pairs the
SLO control plane is evaluated on (see ``docs/scenarios.md`` for the
full catalog).  Fault onsets are virtual seconds; at the scaled
default task counts (5k-12k tasks, ~10k tasks/s at 70% load) a run lasts
roughly 0.5-1.2 s, so every recurring fault below fires at least once.
Scale-down smoke runs (a few hundred tasks) may end before a window
opens; the schedule still validates and reports zero windows.  A new
scenario is one more entry in the table.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..cluster.faults import (
    CrashFault,
    FaultSchedule,
    FlashCrowdFault,
    NetworkJitterFault,
    RebalanceFault,
    SlowdownFault,
)
from ..cluster.topology import ClusterSpec
from .spec import ScenarioSpec, make_scenario

INFINITE = float("inf")

#: The paper's default ring (9 servers, RF 3, one partition per server);
#: placement-driven scenarios derive their targets from it so the fault
#: script and the routing layer can never disagree about who holds what.
_PAPER_RING = ClusterSpec().make_placement()

#: The windowed-p99 target the remediated scenarios defend (model ms):
#: comfortably above the steady-state tail, well below the faulted one.
REMEDIATION_SLO_P99_MS = 10.0


#: Every scenario, keyed by name, in catalogue order.
SCENARIOS: _t.Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        # The paper's Section 2.2 evaluation setup, fault-free.
        make_scenario(
            "steady-state",
            "the paper's SoundCloud-like workload at 70% load, no faults",
        ),
        # One replica periodically degraded 4x (GC pauses / compaction), the
        # shape of the repo's Ablation F straggler benchmark.
        make_scenario(
            "straggler",
            "one server 4x slower in recurring windows (GC / compaction)",
            faults=FaultSchedule(
                (
                    SlowdownFault(
                        servers=(0,), factor=4.0, start=0.05, duration=0.1, period=0.25
                    ),
                )
            ),
        ),
        # Staggered GC pauses sweeping across three servers; windows on distinct
        # servers overlap when drift accumulates.
        make_scenario(
            "recurring-gc",
            "staggered 2.5x GC pauses recurring on three different servers",
            faults=FaultSchedule(
                (
                    SlowdownFault(
                        servers=(0,), factor=2.5, start=0.04, duration=0.08, period=0.21
                    ),
                    SlowdownFault(
                        servers=(3,), factor=2.5, start=0.09, duration=0.08, period=0.23
                    ),
                    SlowdownFault(
                        servers=(6,), factor=2.5, start=0.14, duration=0.08, period=0.25
                    ),
                )
            ),
        ),
        # A load step: arrivals briefly exceed capacity, then recede.
        make_scenario(
            "flash-crowd",
            "recurring 2.2x arrival surges over a 60%-load baseline",
            overrides={"load": 0.60},
            faults=FaultSchedule(
                (
                    FlashCrowdFault(
                        multiplier=2.2, start=0.15, duration=0.2, period=0.6
                    ),
                )
            ),
        ),
        # Popularity concentrates on few keys: replica hotspots via the placement.
        make_scenario(
            "hotspot-skew",
            "hot keyspace: Zipf(1.2) over 20k keys, more playlist expansions",
            overrides={
                "zipf_skew": 1.2,
                "n_keys": 20_000,
                "playlist_fraction": 0.35,
            },
        ),
        # A permanently mixed fleet: three of nine servers are older/slower.
        make_scenario(
            "heterogeneous-cluster",
            "three of nine servers permanently 1.5x slower (mixed hardware)",
            overrides={"load": 0.65},
            faults=FaultSchedule(
                (
                    SlowdownFault(
                        servers=(0, 1, 2), factor=1.5, start=0.0, duration=INFINITE
                    ),
                )
            ),
        ),
        # The fabric degrades: one-way latency inflates with log-normal jitter.
        make_scenario(
            "network-jitter",
            "recurring 6x one-way latency inflation with log-normal jitter",
            faults=FaultSchedule(
                (
                    NetworkJitterFault(
                        factor=6.0, sigma=0.4, start=0.1, duration=0.15, period=0.4
                    ),
                )
            ),
        ),
        # One replica group absorbs most of the traffic: the placement-aware
        # hotspot (contrast with hotspot-skew, whose heat spreads hash-uniformly).
        make_scenario(
            "hot-shard",
            "40% of key draws hit partition 0's replica group (3 of 9 servers)",
            overrides={
                "hot_shard": 0,
                "n_keys": 20_000,
                "load": 0.6,
            },
        ),
        # Exactly the servers holding the hot partition lag (compaction on one
        # replica group): per-key eligible sets decide who can dodge the lag.
        make_scenario(
            "replica-lag",
            "partition 0's whole replica group recurringly 2.5x slower",
            faults=FaultSchedule(
                (
                    SlowdownFault(
                        servers=_PAPER_RING.replicas_of(0),
                        factor=2.5,
                        start=0.05,
                        duration=0.12,
                        period=0.3,
                    ),
                )
            ),
        ),
        # A mid-run ring change: one server is decommissioned and later rejoins;
        # routing follows the surviving replicas window-for-window.
        make_scenario(
            "ring-rebalance",
            "server 2 leaves the placement ring mid-run and rejoins (recurring)",
            faults=FaultSchedule(
                (
                    RebalanceFault(
                        servers=(2,), start=0.08, duration=0.15, period=0.4
                    ),
                )
            ),
        ),
        # Popularity mass concentrated in few shards: a coarse vnode ring under
        # heavy Zipf skew, so hot keys share partitions instead of spreading.
        make_scenario(
            "shard-skew",
            "Zipf(1.3) popularity over a coarse 12-partition vnode ring",
            overrides={"zipf_skew": 1.3, "n_keys": 20_000},
            cluster={"placement_kind": "chash", "n_partitions": 12},
        ),
        # A replica goes down and comes back; queued work must survive.
        make_scenario(
            "crash-restart",
            "one server crashes for 80ms in recurring windows, queue retained",
            faults=FaultSchedule(
                (
                    CrashFault(servers=(0,), start=0.1, duration=0.08, period=0.4),
                )
            ),
        ),
    )
}


def _remediated(name: str, action: str) -> ScenarioSpec:
    """Scenario ``name`` with the SLO loop closed (``action`` says what it
    does): the same overrides, topology and fault script, plus
    ``remediation="slo"`` at the shared target."""
    base = SCENARIOS[name]
    overrides = dict(base.config_overrides)
    overrides.update(remediation="slo", slo_p99_ms=REMEDIATION_SLO_P99_MS)
    return dataclasses.replace(
        base,
        name=f"{name}-remediated",
        summary=f"{name} with the SLO loop {action}",
        config_overrides=tuple(sorted(overrides.items())),
    )


# -- self-healing pairs ------------------------------------------------------
# Three fault scenarios above get a ``*-remediated`` twin that closes the
# loop: the streamed metrics bus feeds the SLO breach detector, and on breach
# the remediation driver boosts the hottest partition with extra replicas
# (see docs/observability.md).  Compare against the base scenario run in
# ``remediation="monitor"`` mode -- same bus, same detector, no action -- so
# breach-window counts are like for like.
SCENARIOS.update(
    (twin.name, twin)
    for twin in (
        _remediated("hot-shard", "spreading the hot partition"),
        _remediated("flash-crowd", "reacting to arrival surges"),
        _remediated("crash-restart", "boosting the downed server's partition"),
    )
)


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a scenario name, with a helpful error on a miss."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {tuple(SCENARIOS)}"
        ) from None
