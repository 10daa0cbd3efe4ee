"""SLO-driven self-healing: the remediation driver and its one lever.

The counterpart of :class:`~repro.cluster.faults.FaultInjector`, which
*causes* trouble on a schedule: :class:`RemediationDriver` *reacts* to it
through windowed :class:`~repro.metrics.bus.BusSnapshot` samples.  Like
the injector it is one class for both realms
(:class:`~repro.harness.runner.RunAssembly` builds both) and both tick it
through ``clock.call_every``, so remediation behavior is defined once,
against the snapshot schema, not per substrate.

The lever is client-side in both realms, which is what makes the single
driver possible: on a confirmed breach with a hot server,
:meth:`~repro.placement.MutablePlacement.boost` the partition whose
replica group carries the most backlog with as many least-loaded
outsiders as it has replicas, so the selection strategies can spread the
heat (live workers serve whatever they are sent; a boost is purely a
routing change).  The boost is dropped when the breach episode clears
(hysteresis lives in the :class:`~repro.metrics.slo.BreachDetector`) or
the run ends.  docs/observability.md keeps the ablation that retired the
other levers.
"""

from __future__ import annotations

import typing as _t

from ..metrics.bus import DEFAULT_BUS_INTERVAL, BusSampler, BusSnapshot
from ..metrics.slo import BreachDetector, SloPolicy

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.clock import Clock
    from ..placement import MutablePlacement

#: Modes the config's ``remediation`` field accepts. ``off`` builds no
#: driver at all (zero events added to the run -- goldens unaffected);
#: ``monitor`` samples and detects but never acts, so its breach-window
#: count is the honest unremediated baseline under an identical event
#: load; ``slo`` closes the loop.
REMEDIATION_MODES = ("off", "monitor", "slo")

#: A server is "hot" when its windowed-mean backlog is this many
#: times the cluster mean.
HOT_QUEUE_RATIO = 1.5


class SloRemediationPolicy:
    """Breach -> boost the hottest partition, clear -> unboost.

    Boosting widens the hot partition's choice set whether the heat is a
    popularity hot shard or one degraded server: either way the extra
    replicas give the selection strategies somewhere else to send it.
    """

    def __init__(self, placement: "MutablePlacement") -> None:
        self.placement = placement
        #: The partition this policy currently holds boosted.
        self._boosted: _t.Optional[int] = None

    @staticmethod
    def hot_server(snapshot: BusSnapshot) -> _t.Optional[int]:
        """The deepest queue, if clearly above the cluster mean."""
        depths = snapshot.queue_depths
        if not depths:
            return None
        mean = sum(depths) / len(depths)
        hottest = max(range(len(depths)), key=lambda i: depths[i])
        if depths[hottest] >= max(HOT_QUEUE_RATIO * mean, 1.0):
            return hottest
        return None

    def _hottest_partition(
        self, depths: _t.Sequence[float]
    ) -> _t.Tuple[int, _t.Tuple[int, ...]]:
        """The partition whose replica group carries the most backlog."""
        placement = self.placement
        best, best_heat = 0, -1.0
        for partition in range(placement.n_partitions):
            replicas = placement.replicas_of(partition)
            heat = sum(depths[s] for s in replicas if s < len(depths))
            if heat > best_heat:
                best, best_heat = partition, heat
        return best, placement.replicas_of(best)

    def on_breach(self, snapshot: BusSnapshot) -> _t.List[_t.Dict[str, _t.Any]]:
        """Boost the hottest partition unless a boost is open; returns the
        actions taken."""
        if self._boosted is not None or self.hot_server(snapshot) is None:
            return []
        depths = snapshot.queue_depths
        partition, members = self._hottest_partition(depths)
        outsiders = sorted(
            (s for s in range(len(depths)) if s not in members),
            key=lambda s: (depths[s], s),
        )
        extras = tuple(outsiders[: len(members)])
        if not extras:
            return []
        self.placement.boost(partition, extras)
        self._boosted = partition
        return [{"action": "boost", "partition": partition, "servers": list(extras)}]

    def on_clear(self) -> _t.List[_t.Dict[str, _t.Any]]:
        """Drop the open boost, if any; returns the actions taken."""
        if self._boosted is None:
            return []
        partition, self._boosted = self._boosted, None
        self.placement.unboost(partition)
        return [{"action": "unboost", "partition": partition}]


def build_remediation(
    config: _t.Any,
    clock: "Clock",
    placement: "MutablePlacement",
    queue_depths: _t.Callable[[], _t.Sequence[float]],
) -> _t.Optional["RemediationDriver"]:
    """Assemble the driver a config asks for (``None`` when ``off``).

    Called by the run assembly for both realms; ``queue_depths`` is the
    substrate's view of per-server backlog.
    """
    mode = config.remediation
    if mode == "off":
        return None
    detector = None
    if config.slo_p99_ms is not None:
        detector = BreachDetector(SloPolicy(p99_target_ms=config.slo_p99_ms))
    policy = SloRemediationPolicy(placement) if mode == "slo" else None
    return RemediationDriver(clock, mode, queue_depths, detector, policy)


class RemediationDriver:
    """Samples the run, evaluates the SLO, applies/reverts remediation.

    One instance per run, realm-agnostic: :meth:`start` ticks it every
    :data:`~repro.metrics.bus.DEFAULT_BUS_INTERVAL` model seconds through
    the clock, and the owner chains :meth:`observe_completion` /
    :meth:`observe_arrival` into its completion callback and feeder.
    """

    def __init__(
        self,
        clock: "Clock",
        mode: str,
        queue_depths: _t.Callable[[], _t.Sequence[float]],
        detector: _t.Optional[BreachDetector] = None,
        policy: _t.Optional[SloRemediationPolicy] = None,
    ) -> None:
        if mode not in REMEDIATION_MODES or mode == "off":
            raise ValueError(f"remediation mode {mode!r} is not an active mode")
        if mode == "slo" and (detector is None or policy is None):
            raise ValueError("slo mode needs a detector and a policy")
        self.clock = clock
        self.mode = mode
        self.sampler = BusSampler()
        self.queue_depths = queue_depths
        self.detector = detector
        self.policy = policy
        #: Called with every snapshot (the live load generator streams
        #: them to the servers).
        self.on_snapshot: _t.Optional[_t.Callable[[BusSnapshot], None]] = None
        self.snapshots = 0
        self.actions = 0

    def start(self) -> None:
        """Tick every bus interval from now on (the realm's time zero)."""
        self.clock.call_every(DEFAULT_BUS_INTERVAL, self.tick)

    # -- observation hooks (chained into the run's callbacks) ---------------
    def observe_arrival(self) -> None:
        self.sampler.observe_arrival(self.clock.now)

    def observe_completion(self, latency: float) -> None:
        self.sampler.observe_completion(self.clock.now, latency)

    # -- the tick -----------------------------------------------------------
    def tick(self, _arg: _t.Any = None) -> BusSnapshot:
        now = self.clock.now
        self.snapshots += 1
        self.sampler.observe_depths(now, self.queue_depths())
        snapshot = self.sampler.snapshot(now, self.snapshots)
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)
        if self.detector is not None:
            transition = self.detector.observe(snapshot)
            if self.mode == "slo" and transition == "breach":
                self.actions += len(self.policy.on_breach(snapshot))
            elif self.mode == "slo" and transition == "clear":
                self.actions += len(self.policy.on_clear())
        return snapshot

    def reset(self) -> None:
        """Revert a still-open boost (run teardown, mid-episode end)."""
        if self.policy is not None:
            self.policy.on_clear()

    def extras(self) -> _t.Dict[str, float]:
        out: _t.Dict[str, float] = {
            "bus_snapshots": float(self.snapshots),
            "remediation_actions": float(self.actions),
        }
        if self.detector is not None:
            out.update(self.detector.extras())
        return out
