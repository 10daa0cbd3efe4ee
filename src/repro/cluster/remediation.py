"""SLO-driven self-healing: the remediation driver and its levers.

The counterpart of :class:`~repro.cluster.faults.FaultInjector`, which
*causes* trouble on a schedule: :class:`RemediationDriver` *reacts* to it
through the streamed metrics bus.  Like the injector it is one class for
both realms (:class:`~repro.harness.runner.RunAssembly` builds both) and
both tick it through ``clock.call_every``, so remediation behavior is
defined once, against the :class:`~repro.metrics.bus.BusSnapshot` schema,
not per substrate.

Every lever is client-side in both realms, which is what makes the
single driver possible:

* **ring swap** -- :meth:`~repro.placement.MutablePlacement.exclude` the
  hottest shard so new requests route around it (live workers serve
  whatever they are sent; a decommission is purely a routing change);
* **credit re-tune** -- halve the hot server's rate scale on the
  credits controller (the same knob its congestion backoff uses);
* **hedging boost** -- raise every hedged strategy's duplicate budget so
  stragglers on the slow shard are cut short.

Applied levers are reverted when the breach episode clears (hysteresis
lives in the :class:`~repro.metrics.slo.BreachDetector`).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..metrics.bus import (
    DEFAULT_BUS_INTERVAL,
    BusEvent,
    BusSampler,
    BusSnapshot,
    MetricsBus,
)
from ..metrics.slo import BreachDetector

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.clock import Clock
    from ..placement import MutablePlacement

#: Modes the config's ``remediation`` field accepts. ``off`` builds no
#: driver at all (zero events added to the run -- goldens unaffected);
#: ``monitor`` streams and detects but never acts, so its breach-window
#: count is the honest unremediated baseline under an identical event
#: load; ``slo`` closes the loop.
REMEDIATION_MODES = ("off", "monitor", "slo")

#: Credit-rate multiplier applied to the hot server on breach.
CREDIT_BACKOFF = 0.5

#: Hedging duplicate-budget multiplier while a breach is open.
HEDGE_BOOST = 3.0

#: A server is "hot" when its windowed-mean backlog is this many
#: times the cluster mean.
HOT_QUEUE_RATIO = 1.5

#: One server holding at least this share of its replica group's backlog
#: is a degraded outlier (exclude it); anything more spread is a hot
#: shard (boost the partition).
OUTLIER_CONCENTRATION = 0.8


@dataclasses.dataclass
class RemediationLevers:
    """The mid-run control surfaces a policy may act on.

    Any of them may be absent (``None``/empty): a strategy without a
    credits controller simply has no credit lever.
    """

    placement: _t.Optional["MutablePlacement"] = None
    #: Credits controller exposing per-server rate ``scales``.
    controller: _t.Optional[_t.Any] = None
    #: Hedged strategies exposing ``budget_fraction``.
    hedged: _t.Sequence[_t.Any] = ()


class SloRemediationPolicy:
    """Breach -> diagnose -> act, clear -> revert.

    The placement action depends on the *shape* of the backlog:

    * **group-wide heat** -- every replica of the hottest partition is at
      or above the cluster-mean queue depth (a popularity hot shard):
      :meth:`~repro.placement.MutablePlacement.boost` the partition with
      the least-loaded outsiders, widening the selection strategies'
      choice set.  Exclusion is *wrong* here: the hot partition would
      keep exactly ``replication_factor`` replicas while the ring loses
      a server's capacity.
    * **single-server outlier** -- one deep queue, shallow siblings (a
      degraded or crashed server): exclude it so new requests route to
      healthy replicas.
    """

    def __init__(self, levers: RemediationLevers) -> None:
        self.levers = levers
        #: Servers this policy currently holds excluded.
        self._excluded: _t.List[int] = []
        #: Partitions this policy currently holds boosted.
        self._boosted: _t.List[int] = []
        #: Hot servers whose credit scale we cut (restored to 1.0 on clear).
        self._scaled: _t.List[int] = []
        #: Saved ``budget_fraction`` per boosted hedged strategy.
        self._hedge_saved: _t.List[_t.Tuple[_t.Any, float]] = []

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

    @staticmethod
    def _hottest_partition(
        depths: _t.Sequence[float], placement: "MutablePlacement"
    ) -> _t.Tuple[int, _t.Tuple[int, ...]]:
        """The partition whose replica group carries the most backlog."""
        best, best_heat = 0, -1.0
        for partition in range(placement.n_partitions):
            replicas = placement.replicas_of(partition)
            heat = sum(depths[s] for s in replicas if s < len(depths))
            if heat > best_heat:
                best, best_heat = partition, heat
        return best, placement.replicas_of(best)

    @staticmethod
    def _spread_targets(
        depths: _t.Sequence[float],
        members: _t.Sequence[int],
        n_extra: int,
    ) -> _t.Tuple[int, ...]:
        """The ``n_extra`` least-loaded servers outside the hot group."""
        outsiders = sorted(
            (s for s in range(len(depths)) if s not in members),
            key=lambda s: (depths[s], s),
        )
        return tuple(outsiders[:n_extra])

    def on_breach(self, snapshot: BusSnapshot) -> _t.List[_t.Dict[str, _t.Any]]:
        """Apply every available lever; returns the actions taken."""
        actions: _t.List[_t.Dict[str, _t.Any]] = []
        depths = snapshot.queue_depths
        placement = self.levers.placement
        hot = self.hot_server(snapshot)
        if (
            hot is not None
            and placement is not None
            and not self._excluded
            and not self._boosted
        ):
            partition, members = self._hottest_partition(depths, placement)
            group_heat = sum(depths[s] for s in members if s < len(depths))
            outlier = (
                hot in members
                and group_heat > 0
                and depths[hot] >= OUTLIER_CONCENTRATION * group_heat
            )
            if not outlier:
                extras = self._spread_targets(depths, members, len(members))
                if extras:
                    placement.boost(partition, extras)
                    self._boosted.append(partition)
                    actions.append(
                        {
                            "action": "boost",
                            "partition": partition,
                            "servers": list(extras),
                        }
                    )
            else:
                try:
                    placement.exclude((hot,))
                except ValueError:
                    pass  # infeasible ring (replication floor): skip
                else:
                    self._excluded.append(hot)
                    actions.append({"action": "exclude", "server": hot})
        controller = self.levers.controller
        if hot is not None and controller is not None:
            scales = getattr(controller, "scales", None)
            if scales is not None and hot in scales and hot not in self._scaled:
                scales[hot] = scales[hot] * CREDIT_BACKOFF
                self._scaled.append(hot)
                actions.append(
                    {"action": "credit_backoff", "server": hot, "scale": scales[hot]}
                )
        if self.levers.hedged and not self._hedge_saved:
            for strategy in self.levers.hedged:
                saved = strategy.budget_fraction
                self._hedge_saved.append((strategy, saved))
                strategy.budget_fraction = min(1.0, saved * HEDGE_BOOST)
            actions.append(
                {"action": "hedge_boost", "strategies": len(self._hedge_saved)}
            )
        return actions

    def on_clear(self, snapshot: BusSnapshot) -> _t.List[_t.Dict[str, _t.Any]]:
        """Revert every lever applied during the episode."""
        del snapshot  # symmetry with on_breach; the revert is stateful
        return self.revert_all()

    def revert_all(self) -> _t.List[_t.Dict[str, _t.Any]]:
        actions: _t.List[_t.Dict[str, _t.Any]] = []
        while self._excluded:
            server = self._excluded.pop()
            self.levers.placement.readmit((server,))
            actions.append({"action": "readmit", "server": server})
        while self._boosted:
            partition = self._boosted.pop()
            self.levers.placement.unboost(partition)
            actions.append({"action": "unboost", "partition": partition})
        while self._scaled:
            server = self._scaled.pop()
            scales = self.levers.controller.scales
            if server in scales:
                scales[server] = 1.0
            actions.append({"action": "credit_restore", "server": server})
        if self._hedge_saved:
            for strategy, saved in self._hedge_saved:
                strategy.budget_fraction = saved
            actions.append(
                {"action": "hedge_restore", "strategies": len(self._hedge_saved)}
            )
            self._hedge_saved.clear()
        return actions


def build_remediation(
    config: _t.Any,
    clock: "Clock",
    placement: _t.Optional["MutablePlacement"],
    shared: _t.Mapping[str, _t.Any],
    strategies: _t.Sequence[_t.Any],
    queue_depths: _t.Callable[[], _t.Sequence[float]],
) -> _t.Optional["RemediationDriver"]:
    """Assemble the driver a config asks for (``None`` when ``off``).

    Called by the run assembly for both realms: ``shared`` is the
    builder's shared-machinery dict (the credits controller lives there),
    ``strategies`` the per-client dispatch strategies (hedged ones become
    levers), ``queue_depths`` the substrate's view of per-server backlog.
    """
    mode = config.remediation
    if mode == "off":
        return None
    from ..baselines.hedging import HedgedStrategy
    from ..metrics.slo import SloPolicy

    detector = None
    policy = None
    if config.slo_p99_ms is not None:
        detector = BreachDetector(SloPolicy(p99_target_ms=config.slo_p99_ms))
    if mode == "slo":
        levers = RemediationLevers(
            placement=placement,
            controller=shared.get("controller"),
            hedged=tuple(
                s for s in strategies if isinstance(s, HedgedStrategy)
            ),
        )
        policy = SloRemediationPolicy(levers)
    return RemediationDriver(
        clock=clock,
        mode=mode,
        sampler=BusSampler(),
        queue_depths=queue_depths,
        detector=detector,
        policy=policy,
    )


class RemediationDriver:
    """Ticks the bus, evaluates the SLO, applies/reverts remediation.

    One instance per run, realm-agnostic: the owner arranges for
    :meth:`tick` to run every ``interval`` model seconds
    (``clock.call_every(interval, driver.tick)`` in both realms) and
    chains :meth:`observe_completion` / :meth:`observe_arrival` into its
    completion callback and feeder.
    """

    def __init__(
        self,
        clock: "Clock",
        mode: str,
        sampler: BusSampler,
        queue_depths: _t.Callable[[], _t.Sequence[float]],
        detector: _t.Optional[BreachDetector] = None,
        policy: _t.Optional[SloRemediationPolicy] = None,
        bus: _t.Optional[MetricsBus] = None,
        interval: float = DEFAULT_BUS_INTERVAL,
    ) -> None:
        if mode not in REMEDIATION_MODES or mode == "off":
            raise ValueError(f"remediation mode {mode!r} is not an active mode")
        if mode == "slo" and (detector is None or policy is None):
            raise ValueError("slo mode needs a detector and a policy")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.clock = clock
        self.mode = mode
        self.sampler = sampler
        self.queue_depths = queue_depths
        self.detector = detector
        self.policy = policy
        self.bus = bus if bus is not None else MetricsBus()
        self.interval = interval
        self.actions = 0
        self._seq = 0

    # -- observation hooks (chained into the run's callbacks) ---------------
    def observe_arrival(self) -> None:
        self.sampler.observe_arrival(self.clock.now)

    def observe_completion(self, latency: float) -> None:
        self.sampler.observe_completion(self.clock.now, latency)

    # -- the tick -----------------------------------------------------------
    def tick(self, _arg: _t.Any = None) -> BusSnapshot:
        now = self.clock.now
        self._seq += 1
        self.sampler.observe_depths(now, self.queue_depths())
        snapshot = self.sampler.snapshot(now, self._seq)
        self.bus.publish(snapshot)
        if self.detector is not None:
            transition = self.detector.observe(snapshot)
            if transition == "breach":
                self.bus.emit(
                    BusEvent(now, "slo-breach", {"p99_ms": snapshot.latency_p99_ms})
                )
                if self.mode == "slo":
                    self._act(self.policy.on_breach(snapshot), now)
            elif transition == "clear":
                self.bus.emit(
                    BusEvent(now, "slo-clear", {"p99_ms": snapshot.latency_p99_ms})
                )
                if self.mode == "slo":
                    self._act(self.policy.on_clear(snapshot), now)
        return snapshot

    def _act(self, actions: _t.Sequence[_t.Mapping[str, _t.Any]], now: float) -> None:
        for action in actions:
            self.actions += 1
            self.bus.emit(BusEvent(now, "remediation", action))

    def reset(self) -> None:
        """Revert any still-applied lever (run teardown, mid-episode end)."""
        if self.policy is not None:
            self.policy.revert_all()

    def extras(self) -> _t.Dict[str, float]:
        out: _t.Dict[str, float] = {
            "bus_snapshots": float(self.bus.published),
            "remediation_actions": float(self.actions),
        }
        if self.detector is not None:
            out.update(self.detector.extras())
        return out
