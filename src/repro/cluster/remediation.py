"""SLO-driven self-healing: one driver samples the run, judges the p99
target and boosts the hot partition.

The counterpart of :class:`~repro.cluster.faults.FaultInjector`, which
*causes* trouble on a schedule: :class:`RemediationDriver` *reacts* to it.
Like the injector it is one class for both realms
(:class:`~repro.harness.runner.RunAssembly` builds both) and both tick it
through ``clock.call_every``: every :data:`DEFAULT_BUS_INTERVAL` it folds
the trailing :data:`DEFAULT_BUS_WINDOW` into a :class:`BusSnapshot`,
judges the snapshot against the p99 target with hysteresis and, in
``slo`` mode, pulls its one lever -- so remediation behavior is defined
once, against the snapshot schema, not per substrate.  The live load
generator also streams every snapshot to the servers (the ``bus-report``
frame is :meth:`BusSnapshot.to_dict`).

The lever is client-side in both realms, which is what makes the single
driver possible: on a confirmed breach with a hot server,
:meth:`~repro.placement.MutablePlacement.boost` the partition whose
replica group carries the most backlog with as many least-loaded
outsiders as it has replicas, so the selection strategies can spread the
heat (live workers serve whatever they are sent; a boost is purely a
routing change).  The boost is dropped when the breach episode clears or
the run ends.  docs/observability.md keeps the ablation that retired the
other levers.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from collections import deque

from ..metrics.reservoir import exact_quantile
from ..metrics.timeseries import WindowedRate

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.clock import Clock
    from ..placement import MutablePlacement

#: Trailing window (model seconds) of every snapshot's percentiles,
#: rates and mean queue depths.
DEFAULT_BUS_WINDOW = 0.1

#: Cadence (model seconds) at which the driver samples.
DEFAULT_BUS_INTERVAL = 0.02

#: Modes the config's ``remediation`` field accepts. ``off`` builds no
#: driver at all (zero events added to the run -- goldens unaffected);
#: ``monitor`` samples and detects but never acts, so its breach-window
#: count is the honest unremediated baseline under an identical event
#: load; ``slo`` closes the loop.
REMEDIATION_MODES = ("off", "monitor", "slo")

#: A server is "hot" when its windowed-mean backlog is this many
#: times the cluster mean.
HOT_QUEUE_RATIO = 1.5

#: Consecutive over-target windows before a breach episode opens.
BREACH_AFTER = 2

#: Consecutive under-target windows before the episode closes.
CLEAR_AFTER = 3

#: Windows with fewer completions than this are not judged (degenerate
#: windows -- e.g. mid-crash -- have meaningless p99s).
MIN_WINDOW_COUNT = 5


@dataclasses.dataclass(frozen=True)
class BusSnapshot:
    """One windowed observation of the running cluster.

    Latencies are in model milliseconds (the paper's reporting unit);
    rates are per model second; ``queue_depths[i]`` is server ``i``'s
    queue length at sample time (live: the latest piggybacked feedback).
    """

    time: float
    seq: int
    window: float
    #: Tasks completed inside the trailing window.
    window_count: int
    #: Cumulative completions at sample time.
    completed: int
    latency_p50_ms: float
    latency_p99_ms: float
    arrival_rate: float
    served_rate: float
    #: Windowed-mean backlog (queued + in service) per server.  Means,
    #: not instantaneous reads: strategies with client-side pacing (C3's
    #: rate limiter, credit gates) keep server queues near zero while
    #: saturating the cores, so a point sample misses the heat entirely.
    queue_depths: _t.Tuple[float, ...]

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        out = dataclasses.asdict(self)
        out["queue_depths"] = list(self.queue_depths)
        return out


class RemediationDriver:
    """Samples the run, judges the SLO, boosts and unboosts.

    One instance per run, built by the run assembly when
    ``config.remediation`` is not ``off``: :meth:`start` ticks it every
    :data:`DEFAULT_BUS_INTERVAL` model seconds through the clock, and the
    owner chains :meth:`observe_completion` / :meth:`observe_arrival` into
    its completion callback and feeder.  ``queue_depths`` is the
    substrate's view of per-server backlog.  Without a ``slo_p99_ms``
    target (``monitor`` only) the driver samples and judges nothing.
    """

    def __init__(
        self,
        config: _t.Any,
        clock: "Clock",
        placement: "MutablePlacement",
        queue_depths: _t.Callable[[], _t.Sequence[float]],
    ) -> None:
        self.clock = clock
        self.mode = config.remediation
        #: Windowed p99 must stay below this (model ms); None: no judging.
        self.target_ms: _t.Optional[float] = config.slo_p99_ms
        self.placement = placement
        self.queue_depths = queue_depths
        #: Called with every snapshot (the live load generator streams
        #: them to the servers).
        self.on_snapshot: _t.Optional[_t.Callable[[BusSnapshot], None]] = None
        # The trailing windows: (time, latency) per completion, arrival
        # times, and (time, per-server backlog) per tick.
        self._latencies: _t.Deque[_t.Tuple[float, float]] = deque()
        self._last_completion = float("-inf")
        self._arrivals = WindowedRate(DEFAULT_BUS_WINDOW)
        self._depths: _t.Deque[_t.Tuple[float, _t.Tuple[float, ...]]] = deque()
        self.completed = 0
        self.snapshots = 0
        self.actions = 0
        self.breached = False
        #: Judged windows (>= MIN_WINDOW_COUNT completions).
        self.windows_evaluated = 0
        #: Judged windows whose p99 exceeded the target.
        self.breach_windows = 0
        #: Breach episodes opened so far.
        self.breaches = 0
        self._over_streak = 0
        self._under_streak = 0
        #: The partition this driver currently holds boosted.
        self._boosted: _t.Optional[int] = None

    def start(self) -> None:
        """Tick every bus interval from now on (the realm's time zero)."""
        self.clock.call_every(DEFAULT_BUS_INTERVAL, self.tick)

    # -- observation hooks (chained into the run's callbacks) ---------------
    def observe_arrival(self) -> None:
        self._arrivals.record(self.clock.now)

    def observe_completion(self, latency: float) -> None:
        now = self.clock.now
        if now < self._last_completion:
            raise ValueError("time went backwards")
        self._last_completion = now
        self._latencies.append((now, latency))
        self.completed += 1

    # -- the tick -----------------------------------------------------------
    def tick(self, _arg: _t.Any = None) -> BusSnapshot:
        snapshot = self.snapshot()
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)
        transition = self.judge(snapshot)
        if self.mode == "slo" and transition is not None:
            acted = self._boost(snapshot) if transition == "breach" else self._unboost()
            self.actions += int(acted)
        return snapshot

    def snapshot(self) -> BusSnapshot:
        """Sample the backlog and fold the trailing windows into the next
        snapshot (percentiles 0.0 over an empty window)."""
        now = self.clock.now
        if now < self._last_completion:
            raise ValueError(f"stale query: now={now} < {self._last_completion}")
        self.snapshots += 1
        cutoff = now - DEFAULT_BUS_WINDOW
        samples = self._depths
        samples.append((now, tuple(float(d) for d in self.queue_depths())))
        while samples[0][0] < cutoff:
            samples.popleft()
        latencies = self._latencies
        while latencies and latencies[0][0] < cutoff:
            latencies.popleft()
        p50 = p99 = 0.0
        if latencies:
            ordered = sorted(v for _, v in latencies)
            p50, p99 = exact_quantile(ordered, 0.50), exact_quantile(ordered, 0.99)
        sums = [0.0] * len(samples[-1][1])
        for _, depths in samples:
            for i, d in enumerate(depths):
                sums[i] += d
        window_count = len(latencies)
        return BusSnapshot(
            time=now,
            seq=self.snapshots,
            window=DEFAULT_BUS_WINDOW,
            window_count=window_count,
            completed=self.completed,
            latency_p50_ms=p50 * 1e3,
            latency_p99_ms=p99 * 1e3,
            arrival_rate=self._arrivals.count(now) / DEFAULT_BUS_WINDOW,
            served_rate=window_count / DEFAULT_BUS_WINDOW,
            queue_depths=tuple(s / len(samples) for s in sums),
        )

    def judge(self, snapshot: BusSnapshot) -> _t.Optional[str]:
        """``"breach"`` when a breach episode opens (:data:`BREACH_AFTER`
        over-target windows in a row), ``"clear"`` when it closes
        (:data:`CLEAR_AFTER` under-target ones), None otherwise -- so a
        single noisy window neither triggers nor cancels remediation."""
        if self.target_ms is None or snapshot.window_count < MIN_WINDOW_COUNT:
            return None
        self.windows_evaluated += 1
        if snapshot.latency_p99_ms > self.target_ms:
            self.breach_windows += 1
            self._over_streak += 1
            self._under_streak = 0
        else:
            self._under_streak += 1
            self._over_streak = 0
        if not self.breached and self._over_streak >= BREACH_AFTER:
            self.breached = True
            self.breaches += 1
            return "breach"
        if self.breached and self._under_streak >= CLEAR_AFTER:
            self.breached = False
            return "clear"
        return None

    # -- the lever ----------------------------------------------------------
    def _boost(self, snapshot: BusSnapshot) -> bool:
        """Boost the hottest partition, unless a boost is open or no server
        is clearly above the cluster mean.  Boosting widens the partition's
        choice set whether the heat is a popularity hot shard or one
        degraded server: either way the extra replicas give the selection
        strategies somewhere else to send it."""
        depths = snapshot.queue_depths
        if self._boosted is not None or not depths:
            return False
        mean = sum(depths) / len(depths)
        if max(depths) < max(HOT_QUEUE_RATIO * mean, 1.0):
            return False
        placement = self.placement
        partition, heat = 0, -1.0
        for candidate in range(placement.n_partitions):
            replicas = placement.replicas_of(candidate)
            candidate_heat = sum(depths[s] for s in replicas if s < len(depths))
            if candidate_heat > heat:
                partition, heat = candidate, candidate_heat
        members = placement.replicas_of(partition)
        outsiders = sorted(
            (s for s in range(len(depths)) if s not in members),
            key=lambda s: (depths[s], s),
        )
        added = tuple(outsiders[: len(members)])
        if not added:
            return False
        placement.boost(partition, added)
        self._boosted = partition
        return True

    def _unboost(self) -> bool:
        """Drop the open boost, if any."""
        if self._boosted is None:
            return False
        partition, self._boosted = self._boosted, None
        self.placement.unboost(partition)
        return True

    def reset(self) -> None:
        """Revert a still-open boost (run teardown, mid-episode end)."""
        self._unboost()

    def extras(self) -> _t.Dict[str, float]:
        """Audit counters merged into ``RunResult.extras``."""
        out = {
            "bus_snapshots": float(self.snapshots),
            "remediation_actions": float(self.actions),
        }
        if self.target_ms is not None:
            out["slo_windows_evaluated"] = float(self.windows_evaluated)
            out["slo_breach_windows"] = float(self.breach_windows)
            out["slo_breaches"] = float(self.breaches)
        return out
