"""Mid-run rebalance: the fault window re-homes routing, sim end to end.

Covers the runtime half of the placement layer: strategies route around
decommissioned servers the moment a window opens (the eligible-replica
seam), scenario runs under rebalance conserve every task, and the audit
counters record what happened.
"""

from types import SimpleNamespace

import pytest

from repro.baselines.selectors import make_selector
from repro.baselines.strategies import ObliviousStrategy
from repro.cluster.faults import FaultSchedule, RebalanceFault
from repro.harness import ExperimentConfig, run_experiment
from repro.placement import MutablePlacement, RingPlacement
from repro.scenarios import get_scenario
from repro.sim.rng import Stream
from repro.workload.calibration import ServiceTimeModel
from repro.workload.tasks import Operation, Task


def _task(task_id, keys):
    return Task(
        task_id=task_id,
        arrival_time=0.0,
        client_id=0,
        operations=tuple(
            Operation(op_id=task_id * 100 + i, task_id=task_id, key=key, value_size=100)
            for i, key in enumerate(keys)
        ),
    )


def _prepare(strategy, task):
    strategy.client = SimpleNamespace(client_id=0, env=SimpleNamespace(now=0.0))
    return strategy.prepare(task)


class TestEligibleReplicaSeam:
    def test_prepare_only_addresses_current_replicas(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        strategy = ObliviousStrategy(
            placement,
            make_selector("round-robin", stream=Stream(1, "sel")),
            ServiceTimeModel(overhead=0.0, bandwidth=1e6),
        )
        keys = list(range(40))
        for request in _prepare(strategy, _task(0, keys)):
            assert request.server_id in placement.replicas_of(request.partition)

    def test_prepare_routes_around_excluded_server(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        strategy = ObliviousStrategy(
            placement,
            make_selector("round-robin", stream=Stream(1, "sel")),
            ServiceTimeModel(overhead=0.0, bandwidth=1e6),
        )
        keys = list(range(60))
        before = _prepare(strategy, _task(0, keys))
        assert any(r.server_id == 4 for r in before)  # 4 serves some keys
        placement.exclude([4])
        after = _prepare(strategy, _task(1, keys))
        assert all(r.server_id != 4 for r in after)
        placement.readmit([4])
        again = _prepare(strategy, _task(2, keys))
        assert any(r.server_id == 4 for r in again)


class TestRebalanceRuns:
    @pytest.mark.parametrize("strategy", ["oblivious-lor", "unifincr-credits"])
    def test_scenario_conserves_tasks_and_counts_windows(self, strategy):
        cfg = get_scenario("ring-rebalance").build_config(
            strategy=strategy, n_tasks=1800, n_keys=2000
        )
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 1800
        assert result.extras["rebalance_windows"] >= 1
        assert result.extras["placement_swaps"] >= 1

    def test_permanent_decommission(self):
        cfg = ExperimentConfig(
            strategy="oblivious-lor",
            n_tasks=800,
            n_keys=2000,
            fault_schedule=FaultSchedule(
                (RebalanceFault(servers=(0, 1), start=0.0, duration=float("inf")),)
            ),
        )
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 800
        assert result.extras["placement_swaps"] == 1.0

    def test_infeasible_rebalance_rejected_before_the_run(self):
        """Draining 7 of 9 servers under RF=3 must fail at construction,
        not crash mid-window (code-review finding)."""
        cfg = ExperimentConfig(
            strategy="oblivious-lor",
            n_tasks=50,
            fault_schedule=FaultSchedule(
                (RebalanceFault(servers=tuple(range(7)), start=0.01),)
            ),
        )
        with pytest.raises(ValueError, match="infeasible.*replication_factor"):
            run_experiment(cfg, seed=1)

    def test_overlapping_same_server_rebalances_run_clean(self):
        """Two windows sharing server 2 compose via reference counting."""
        cfg = ExperimentConfig(
            strategy="oblivious-lor",
            n_tasks=1500,
            n_keys=2000,
            fault_schedule=FaultSchedule(
                (
                    RebalanceFault(servers=(2,), start=0.01, duration=0.3),
                    RebalanceFault(servers=(2, 3), start=0.05, duration=0.3),
                )
            ),
        )
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 1500
        assert result.extras["rebalance_windows"] == 2.0

    def test_candidate_replicas_matches_routed_requests(self):
        """``placement.replicas_of_key`` -- what a builder's context holds --
        is the same eligible set the strategies route within (the seam's
        contract)."""
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        strategy = ObliviousStrategy(
            placement,
            make_selector("round-robin", stream=Stream(1, "sel")),
            ServiceTimeModel(overhead=0.0, bandwidth=1e6),
        )
        ctx = SimpleNamespace(placement=placement)
        for request in _prepare(strategy, _task(0, list(range(40)))):
            eligible = ctx.placement.replicas_of_key(request.op.key)
            assert request.server_id in eligible
            assert eligible == placement.replicas_of(request.partition)

    def test_hot_shard_workload_concentrates_on_one_group(self):
        cfg = get_scenario("hot-shard").build_config(n_tasks=10)
        workload = cfg.workload()
        placement = cfg.cluster.make_placement()
        hot_group = set(placement.replicas_of(cfg.hot_shard))
        stream = Stream(7, "probe")
        hits = sum(
            1
            for _ in range(2000)
            if set(placement.replicas_of_key(workload.popularity.sample_key(stream)))
            == hot_group
        )
        # 40% directed draws, plus the base model's incidental hits on the
        # shard (~1/9 of base draws); uniform routing would give ~11%.
        assert hits / 2000 > 0.35


class TestBoost:
    """Replica spreading: the hot-shard remediation lever."""

    def test_boost_widens_the_replica_set(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        base = placement.replicas_of(0)
        extras = tuple(s for s in range(9) if s not in base)[:2]
        placement.boost(0, extras)
        widened = placement.replicas_of(0)
        assert set(widened) == set(base) | set(extras)
        # Other partitions are untouched.
        for p in range(1, placement.n_partitions):
            assert extras[0] not in placement.replicas_of(p) or extras[
                0
            ] in RingPlacement(9, replication_factor=3).replicas_of(p)

    def test_unboost_restores_the_base_set(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        base = placement.replicas_of(2)
        extra = next(s for s in range(9) if s not in base)
        placement.boost(2, (extra,))
        placement.unboost(2)
        assert placement.replicas_of(2) == base
        assert placement.boosted == {}

    def test_boost_and_unboost_bump_the_swap_counter(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        extra = next(s for s in range(9) if s not in placement.replicas_of(0))
        placement.boost(0, (extra,))
        swaps = placement.swaps
        placement.unboost(0)
        assert placement.swaps == swaps + 1

    def test_excluded_servers_drop_out_of_boosted_sets(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        base = placement.replicas_of(0)
        extras = tuple(s for s in range(9) if s not in base)[:2]
        placement.boost(0, extras)
        placement.exclude((extras[0],))
        replicas = placement.replicas_of(0)
        assert extras[0] not in replicas
        assert extras[1] in replicas
        placement.readmit((extras[0],))
        assert extras[0] in placement.replicas_of(0)

    def test_boost_validates_its_arguments(self):
        placement = MutablePlacement(RingPlacement(9, replication_factor=3))
        with pytest.raises(ValueError, match="out of range"):
            placement.boost(99, (1,))
        with pytest.raises(ValueError, match="out of range"):
            placement.boost(0, (42,))
        with pytest.raises(ValueError, match="at least one"):
            placement.boost(0, ())
        with pytest.raises(ValueError, match="not boosted"):
            placement.unboost(3)
