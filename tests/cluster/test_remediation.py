"""Unit tests for the SLO loop: its windows, its hysteresis and its lever."""

import types

import pytest

from repro.cluster.remediation import (
    BREACH_AFTER,
    CLEAR_AFTER,
    MIN_WINDOW_COUNT,
    BusSnapshot,
    RemediationDriver,
)
from repro.cluster.topology import ClusterSpec
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.placement import MutablePlacement


def snap(p99_ms=50.0, queue_depths=(), count=10):
    return BusSnapshot(
        time=0.0, seq=0, window=0.1, window_count=count, completed=count,
        latency_p50_ms=p99_ms / 2, latency_p99_ms=p99_ms,
        arrival_rate=100.0, served_rate=100.0,
        queue_depths=tuple(queue_depths),
    )


def paper_placement():
    return MutablePlacement(ClusterSpec().make_placement())


def config(**overrides):
    return ExperimentConfig(**{"strategy": "c3", "n_tasks": 100, **overrides})


def make_driver(mode="slo", depths=lambda: [], placement=None, target=10.0):
    """A driver on a hand-set clock: ``clock.now`` is what tests move."""
    clock = types.SimpleNamespace(now=0.0)
    driver = RemediationDriver(
        config(remediation=mode, slo_p99_ms=target),
        clock,
        placement if placement is not None else paper_placement(),
        depths,
    )
    return clock, driver


def test_hysteresis_constants():
    """The window sequences below are spelled for these values."""
    assert (BREACH_AFTER, CLEAR_AFTER, MIN_WINDOW_COUNT) == (2, 3, 5)


class TestSnapshotWindows:
    def test_snapshot_reports_windowed_rates_and_percentiles(self):
        clock, driver = make_driver(mode="monitor")
        for i in range(10):
            clock.now = i * 0.01
            driver.observe_arrival()
            driver.observe_completion(0.002 * (i + 1))
        snapshot = driver.snapshot()
        assert snapshot.window_count == 10
        assert snapshot.completed == 10
        assert snapshot.arrival_rate == pytest.approx(100.0)
        assert snapshot.served_rate == pytest.approx(100.0)
        # Latencies 2..20 ms; the p50 sits mid-range, the p99 near the top.
        assert 8.0 <= snapshot.latency_p50_ms <= 14.0
        assert 18.0 <= snapshot.latency_p99_ms <= 20.0

    def test_quantiles_over_the_trailing_window(self):
        clock, driver = make_driver(mode="monitor")
        for t, v in ((0.0, 0.001), (0.05, 0.002), (0.09, 0.003)):
            clock.now = t
            driver.observe_completion(v)
        clock.now = 0.1
        snapshot = driver.snapshot()
        assert snapshot.window_count == 3
        assert snapshot.latency_p50_ms == 2.0
        assert snapshot.latency_p99_ms == pytest.approx(2.98)

    def test_completions_evict_once_older_than_the_window(self):
        clock, driver = make_driver(mode="monitor")
        driver.observe_completion(0.010)
        clock.now = 0.2
        driver.observe_completion(0.001)
        snapshot = driver.snapshot()
        assert snapshot.window_count == 1
        assert snapshot.latency_p99_ms == 1.0
        assert snapshot.completed == 2

    def test_empty_window_reports_zero(self):
        clock, driver = make_driver(mode="monitor")
        clock.now = 0.5
        snapshot = driver.snapshot()
        assert snapshot.window_count == 0
        assert (snapshot.latency_p50_ms, snapshot.latency_p99_ms) == (0.0, 0.0)
        assert snapshot.queue_depths == ()
        assert snapshot.seq == 1

    def test_time_regression_on_record_raises(self):
        clock, driver = make_driver(mode="monitor")
        clock.now = 1.0
        driver.observe_completion(0.001)
        clock.now = 0.5
        with pytest.raises(ValueError, match="backwards"):
            driver.observe_completion(0.002)

    def test_stale_query_raises(self):
        clock, driver = make_driver(mode="monitor")
        clock.now = 1.0
        driver.observe_completion(0.001)
        clock.now = 0.5
        with pytest.raises(ValueError, match="stale"):
            driver.snapshot()

    def test_queue_depths_are_windowed_means(self):
        samples = iter([(0.0, 4.0), (2.0, 0.0)])
        clock, driver = make_driver(mode="monitor", depths=lambda: next(samples))
        driver.snapshot()
        clock.now = 0.05
        assert driver.snapshot().queue_depths == (1.0, 2.0)

    def test_depth_samples_evict_with_the_window(self):
        samples = iter([(100.0,), (2.0,)])
        clock, driver = make_driver(mode="monitor", depths=lambda: next(samples))
        driver.snapshot()
        clock.now = 1.0
        assert driver.snapshot().queue_depths == (2.0,)

    def test_snapshot_to_dict_is_json_friendly(self):
        clock, driver = make_driver(mode="monitor", depths=lambda: (1, 2))
        out = driver.snapshot().to_dict()
        assert out["queue_depths"] == [1.0, 2.0]
        assert set(out) == {
            "time", "seq", "window", "window_count", "completed",
            "latency_p50_ms", "latency_p99_ms", "arrival_rate",
            "served_rate", "queue_depths",
        }


class TestHysteresis:
    def test_breach_needs_consecutive_over_windows(self):
        _, driver = make_driver(mode="monitor")
        assert driver.judge(snap(15.0)) is None  # 1 of 2
        assert not driver.breached
        assert driver.judge(snap(15.0)) == "breach"
        assert driver.breached
        assert driver.breaches == 1

    def test_interrupted_streak_starts_over(self):
        _, driver = make_driver(mode="monitor")
        assert driver.judge(snap(15.0)) is None
        assert driver.judge(snap(5.0)) is None  # streak broken
        assert driver.judge(snap(15.0)) is None  # back to 1 of 2
        assert driver.judge(snap(15.0)) == "breach"

    def test_clear_needs_longer_under_streak(self):
        _, driver = make_driver(mode="monitor")
        driver.judge(snap(15.0))
        driver.judge(snap(15.0))
        assert driver.breached
        assert driver.judge(snap(5.0)) is None  # 1 of 3
        assert driver.judge(snap(5.0)) is None  # 2 of 3
        assert driver.judge(snap(5.0)) == "clear"
        assert not driver.breached

    def test_flapping_inside_a_breach_does_not_clear(self):
        _, driver = make_driver(mode="monitor")
        driver.judge(snap(15.0))
        driver.judge(snap(15.0))
        for p99 in (5.0, 5.0, 15.0, 5.0, 5.0):  # never 3 consecutive unders
            assert driver.judge(snap(p99)) is None
        assert driver.breached

    def test_repeated_episodes_count_separately(self):
        _, driver = make_driver(mode="monitor")
        transitions = [
            driver.judge(snap(p99))
            for p99 in (20.0, 20.0, 1.0, 1.0, 1.0, 20.0, 20.0)
        ]
        assert [t for t in transitions if t] == ["breach", "clear", "breach"]
        assert driver.breaches == 2

    def test_thin_windows_are_skipped_entirely(self):
        _, driver = make_driver(mode="monitor")
        for _ in range(BREACH_AFTER):
            assert driver.judge(snap(100.0, count=MIN_WINDOW_COUNT - 1)) is None
        assert not driver.breached
        assert driver.windows_evaluated == 0

    def test_breach_windows_count_every_over_window(self):
        _, driver = make_driver(mode="monitor")
        for p99 in (15.0, 15.0, 15.0, 5.0, 5.0):
            driver.judge(snap(p99))
        assert driver.windows_evaluated == 5
        assert driver.breach_windows == 3
        assert driver.breaches == 1

    def test_no_target_judges_nothing(self):
        """``monitor`` without ``--slo-p99-ms`` only samples."""
        _, driver = make_driver(mode="monitor", target=None)
        for _ in range(BREACH_AFTER):
            assert driver.judge(snap(1e6)) is None
        assert driver.windows_evaluated == 0
        assert set(driver.extras()) == {"bus_snapshots", "remediation_actions"}


class TestBoost:
    """The one lever: boost the hottest partition while a server is hot."""

    def test_no_depths_means_no_hot_server(self):
        _, driver = make_driver()
        assert not driver._boost(snap(queue_depths=()))

    def test_uniform_load_is_not_hot(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        assert not driver._boost(snap(queue_depths=[3.0] * 9))
        assert not placement.boosted
        assert not driver._unboost()

    def test_clearly_deepest_queue_is_hot(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        depths = [1.0] * 9
        depths[4] = 10.0
        assert driver._boost(snap(queue_depths=depths))
        (partition,) = placement.boosted
        assert 4 in placement.replicas_of(partition)

    def test_tiny_absolute_depths_are_ignored(self):
        # 3x the mean but well under one request of backlog: not actionable.
        depths = [0.01] * 9
        depths[2] = 0.5
        _, driver = make_driver()
        assert not driver._boost(snap(queue_depths=depths))

    def test_group_wide_heat_boosts_the_hot_partition(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        # Partition 0's whole replica group (0, 1, 2) is deep: a hot shard.
        depths = [6.0, 5.0, 5.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        assert driver._boost(snap(queue_depths=depths))
        assert list(placement.boosted) == [0]
        # The widened set keeps the original replicas and adds outsiders.
        assert set(placement.replicas_of(0)) > {0, 1, 2}
        assert len(placement.replicas_of(0)) == 6

    def test_single_server_outlier_boosts_its_partition(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        # One deep queue, shallow siblings: a degraded server is boosted
        # around like a hot shard, never excluded.
        assert driver._boost(snap(queue_depths=[9.0] + [0.2] * 8))
        (partition,) = placement.boosted
        assert 0 in placement.replicas_of(partition)
        assert placement.excluded == ()

    def test_second_breach_does_not_stack_boosts(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        depths = [6.0, 5.0, 5.0] + [0.5] * 6
        assert driver._boost(snap(queue_depths=depths))
        assert not driver._boost(snap(queue_depths=depths))
        assert len(placement.boosted) == 1

    def test_unboost_reverts_everything(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        driver._boost(snap(queue_depths=[6.0, 5.0, 5.0] + [0.5] * 6))
        assert placement.boosted
        assert driver._unboost()
        assert not placement.boosted
        assert not driver._unboost()


class TestModes:
    def test_off_builds_nothing(self):
        result = run_experiment(config(n_tasks=200), seed=1)
        assert "bus_snapshots" not in result.extras

    def test_monitor_judges_without_acting(self):
        _, driver = make_driver(mode="monitor")
        assert driver.mode == "monitor"
        assert driver.target_ms == 10.0

    def test_slo_wires_the_placement(self):
        placement = paper_placement()
        _, driver = make_driver(placement=placement)
        assert driver.placement is placement

    def test_slo_mode_requires_a_target(self):
        with pytest.raises(ValueError, match="slo_p99_ms"):
            config(remediation="slo")

    def test_unknown_mode_rejected_by_config(self):
        with pytest.raises(ValueError, match="remediation"):
            config(remediation="aggressive")


class TestRemediationDriver:
    HOT = staticmethod(lambda: [9.0] + [0.2] * 8)

    def feed(self, driver, latency):
        # Ten completions inside the window: at 50 ms the p99 is over target.
        for _ in range(10):
            driver.observe_arrival()
            driver.observe_completion(latency)

    def ticks(self, clock, driver, n, start):
        for i in range(n):
            clock.now = start + 0.02 * i
            driver.tick()

    def test_tick_publishes_a_snapshot(self):
        _, driver = make_driver(mode="monitor")
        snapshot = driver.tick()
        assert snapshot.seq == 1
        assert driver.snapshots == 1

    def test_tick_hands_every_snapshot_to_on_snapshot(self):
        clock, driver = make_driver(mode="monitor")
        seen = []
        driver.on_snapshot = seen.append
        first = driver.tick()
        clock.now = 0.02
        second = driver.tick()
        assert seen == [first, second]
        assert [s.seq for s in seen] == [1, 2]

    def test_monitor_detects_but_never_acts(self):
        placement = paper_placement()
        clock, driver = make_driver(
            mode="monitor", depths=self.HOT, placement=placement
        )
        self.feed(driver, 0.05)
        self.ticks(clock, driver, BREACH_AFTER, start=0.0)
        assert driver.breached
        assert driver.actions == 0
        assert not placement.boosted

    def test_slo_acts_on_breach_and_reverts_on_clear(self):
        placement = paper_placement()
        clock, driver = make_driver(depths=self.HOT, placement=placement)
        self.feed(driver, 0.05)
        self.ticks(clock, driver, BREACH_AFTER, start=0.0)
        assert driver.actions == 1
        assert placement.boosted
        assert placement.excluded == ()
        # The next windows are healthy: the driver unboosts on clear.
        clock.now = 0.2
        self.feed(driver, 0.001)
        self.ticks(clock, driver, CLEAR_AFTER, start=0.2)
        assert not driver.breached
        assert driver.actions == 2
        assert not placement.boosted

    def test_reset_reverts_mid_episode_levers(self):
        placement = paper_placement()
        clock, driver = make_driver(depths=self.HOT, placement=placement)
        self.feed(driver, 0.05)
        self.ticks(clock, driver, BREACH_AFTER, start=0.0)
        assert placement.boosted
        driver.reset()
        assert not placement.boosted

    def test_extras_are_float_valued_counters(self):
        _, driver = make_driver(mode="monitor")
        driver.tick()
        extras = driver.extras()
        assert extras == {
            "bus_snapshots": 1.0,
            "remediation_actions": 0.0,
            "slo_windows_evaluated": 0.0,
            "slo_breach_windows": 0.0,
            "slo_breaches": 0.0,
        }
        assert all(isinstance(v, float) for v in extras.values())
