"""Unit tests for the SLO remediation policy and driver."""

import pytest

from repro.cluster.remediation import (
    RemediationDriver,
    SloRemediationPolicy,
    build_remediation,
)
from repro.cluster.topology import ClusterSpec
from repro.harness.config import ExperimentConfig
from repro.metrics.bus import BusSnapshot
from repro.metrics.slo import BreachDetector, SloPolicy
from repro.placement import MutablePlacement
from repro.sim.engine import Environment


def snap(queue_depths, p99_ms=50.0, count=10):
    return BusSnapshot(
        time=0.0, seq=0, window=0.1, window_count=count, completed=count,
        latency_p50_ms=p99_ms / 2, latency_p99_ms=p99_ms,
        arrival_rate=100.0, served_rate=100.0,
        queue_depths=tuple(queue_depths),
    )


def paper_placement():
    return MutablePlacement(ClusterSpec().make_placement())


class TestHotServerDiagnosis:
    def test_no_depths_means_no_hot_server(self):
        assert SloRemediationPolicy.hot_server(snap(())) is None

    def test_uniform_load_is_not_hot(self):
        assert SloRemediationPolicy.hot_server(snap([3.0] * 9)) is None

    def test_clearly_deepest_queue_is_hot(self):
        depths = [1.0] * 9
        depths[4] = 10.0
        assert SloRemediationPolicy.hot_server(snap(depths)) == 4

    def test_tiny_absolute_depths_are_ignored(self):
        # 3x the mean but well under one request of backlog: not actionable.
        depths = [0.01] * 9
        depths[2] = 0.5
        assert SloRemediationPolicy.hot_server(snap(depths)) is None


class TestPlacementAction:
    def test_group_wide_heat_boosts_the_hot_partition(self):
        placement = paper_placement()
        policy = SloRemediationPolicy(placement)
        # Partition 0's whole replica group (0, 1, 2) is deep: a hot shard.
        depths = [6.0, 5.0, 5.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        actions = policy.on_breach(snap(depths))
        kinds = [a["action"] for a in actions]
        assert kinds == ["boost"]
        assert actions[0]["partition"] == 0
        # The widened set keeps the original replicas and adds outsiders.
        replicas = placement.replicas_of(0)
        assert set(replicas) > {0, 1, 2}
        assert all(s not in (0, 1, 2) for s in actions[0]["servers"])

    def test_single_server_outlier_boosts_its_partition(self):
        placement = paper_placement()
        policy = SloRemediationPolicy(placement)
        # One deep queue, shallow siblings: a degraded server is boosted
        # around like a hot shard, never excluded.
        depths = [9.0] + [0.2] * 8
        actions = policy.on_breach(snap(depths))
        assert [a["action"] for a in actions] == ["boost"]
        assert 0 in placement.replicas_of(actions[0]["partition"])
        assert placement.boosted
        assert placement.excluded == ()

    def test_second_breach_does_not_stack_placement_actions(self):
        placement = paper_placement()
        policy = SloRemediationPolicy(placement)
        depths = [6.0, 5.0, 5.0] + [0.5] * 6
        assert policy.on_breach(snap(depths))
        assert policy.on_breach(snap(depths)) == []
        assert len(placement.boosted) == 1

    def test_clear_reverts_everything(self):
        placement = paper_placement()
        policy = SloRemediationPolicy(placement)
        depths = [6.0, 5.0, 5.0] + [0.5] * 6
        policy.on_breach(snap(depths))
        assert placement.boosted
        assert policy.on_clear() == [{"action": "unboost", "partition": 0}]
        assert not placement.boosted
        assert policy.on_clear() == []

    def test_no_hot_server_means_no_actions(self):
        placement = paper_placement()
        policy = SloRemediationPolicy(placement)
        assert policy.on_breach(snap([3.0] * 9)) == []
        assert not placement.boosted
        assert policy.on_clear() == []


class TestBuildRemediation:
    def config(self, **overrides):
        return ExperimentConfig(strategy="c3", n_tasks=100, **overrides)

    def test_off_builds_nothing(self):
        driver = build_remediation(
            self.config(), Environment(), paper_placement(), lambda: []
        )
        assert driver is None

    def test_monitor_streams_without_a_policy(self):
        driver = build_remediation(
            self.config(remediation="monitor", slo_p99_ms=10.0),
            Environment(), paper_placement(), lambda: [],
        )
        assert driver.mode == "monitor"
        assert driver.detector is not None
        assert driver.policy is None

    def test_slo_wires_the_placement(self):
        placement = paper_placement()
        driver = build_remediation(
            self.config(remediation="slo", slo_p99_ms=10.0),
            Environment(), placement, lambda: [],
        )
        assert driver.policy is not None
        assert driver.policy.placement is placement

    def test_slo_mode_requires_a_target(self):
        with pytest.raises(ValueError, match="slo_p99_ms"):
            self.config(remediation="slo")

    def test_unknown_mode_rejected_by_config(self):
        with pytest.raises(ValueError, match="remediation"):
            self.config(remediation="aggressive")


class TestRemediationDriver:
    def driver(self, mode="slo", depths=lambda: [0.0] * 9, placement=None):
        env = Environment()
        policy = None
        detector = BreachDetector(
            SloPolicy(p99_target_ms=10.0, breach_after=1, clear_after=1)
        )
        if mode == "slo":
            policy = SloRemediationPolicy(placement or paper_placement())
        return env, RemediationDriver(
            clock=env, mode=mode, queue_depths=depths, detector=detector,
            policy=policy,
        )

    def feed_breach(self, env, driver, latency=0.05):
        # Ten slow completions inside the window make p99 = 50 ms > target.
        for _ in range(10):
            driver.observe_arrival()
            driver.observe_completion(latency)

    def test_tick_publishes_a_snapshot(self):
        env, driver = self.driver(mode="monitor")
        snapshot = driver.tick()
        assert snapshot.seq == 1
        assert driver.snapshots == 1

    def test_tick_hands_every_snapshot_to_on_snapshot(self):
        env, driver = self.driver(mode="monitor")
        seen = []
        driver.on_snapshot = seen.append
        first = driver.tick()
        env.run(until=0.02)
        second = driver.tick()
        assert seen == [first, second]
        assert [s.seq for s in seen] == [1, 2]

    def test_monitor_detects_but_never_acts(self):
        env, driver = self.driver(mode="monitor")
        self.feed_breach(env, driver)
        driver.tick()
        assert driver.detector.breached
        assert driver.actions == 0

    def test_slo_acts_on_breach_and_reverts_on_clear(self):
        placement = paper_placement()
        hot = lambda: [9.0] + [0.2] * 8
        env, driver = self.driver(mode="slo", depths=hot, placement=placement)
        self.feed_breach(env, driver)
        driver.tick()
        assert driver.actions == 1
        assert placement.boosted
        assert placement.excluded == ()
        # Next window is healthy: the driver reverts through the policy.
        env.run(until=0.2)
        self.feed_breach(env, driver, latency=0.001)
        driver.tick()
        assert not driver.detector.breached
        assert driver.actions == 2
        assert not placement.boosted

    def test_reset_reverts_mid_episode_levers(self):
        placement = paper_placement()
        env, driver = self.driver(
            mode="slo", depths=lambda: [9.0] + [0.2] * 8, placement=placement
        )
        self.feed_breach(env, driver)
        driver.tick()
        assert placement.boosted
        driver.reset()
        assert not placement.boosted

    def test_extras_expose_bus_and_detector_counters(self):
        env, driver = self.driver(mode="monitor")
        driver.tick()
        extras = driver.extras()
        assert extras["bus_snapshots"] == 1.0
        assert extras["remediation_actions"] == 0.0
        assert "slo_windows_evaluated" in extras

    def test_off_mode_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="active"):
            RemediationDriver(clock=env, mode="off", queue_depths=lambda: [])
