"""Unit tests for experiment configuration."""

import dataclasses

import pytest

from repro.cli import main
from repro.cluster.faults import FaultSchedule, SlowdownFault
from repro.core.credits import DEFAULT_EPOCH
from repro.harness import (
    ExperimentConfig,
    FIGURE2_STRATEGIES,
    KNOWN_STRATEGIES,
)
from repro.scenarios import SCENARIOS
from repro.sim.rng import StreamFactory
from repro.workload import PAPER_CLIENTS


class TestExperimentConfig:
    def test_defaults_match_paper_setup(self):
        cfg = ExperimentConfig()
        assert PAPER_CLIENTS == 18
        assert cfg.cluster.n_servers == 9
        assert cfg.cluster.cores_per_server == 4
        assert cfg.load == 0.70
        assert cfg.mean_fanout == 8.6
        assert DEFAULT_EPOCH == 1.0  # the credits adaptation epoch

    def test_figure2_strategies_are_known(self):
        assert set(FIGURE2_STRATEGIES) <= set(KNOWN_STRATEGIES)
        assert "c3" in FIGURE2_STRATEGIES
        assert len(FIGURE2_STRATEGIES) == 5

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ExperimentConfig(strategy="magic")

    def test_with_strategy_preserves_workload_shape(self):
        base = ExperimentConfig(strategy="c3", n_tasks=123, load=0.6)
        other = base.with_strategy("equalmax-model")
        assert other.strategy == "equalmax-model"
        assert other.n_tasks == 123
        assert other.load == 0.6

    def test_workload_derivation(self):
        cfg = ExperimentConfig(n_tasks=100)
        w = cfg.workload()
        assert w.n_tasks == 100
        assert w.generator(StreamFactory(1)).n_clients == PAPER_CLIENTS
        assert w.task_rate > 0

    @pytest.mark.parametrize("per_core_rate", [None, 5000.0], ids=["default", "rate"])
    def test_service_model_is_the_workloads(self, per_core_rate):
        """What a server is built with is the model the trace is calibrated
        against, for every scenario's cluster (and that cluster at another
        per-core rate)."""
        for name, spec in SCENARIOS.items():
            cfg = spec.build_config()
            if per_core_rate is not None:
                cluster = dataclasses.replace(cfg.cluster, per_core_rate=per_core_rate)
                cfg = dataclasses.replace(cfg, cluster=cluster)
            assert cfg.service_model() == cfg.workload().service_model, name

    def test_workload_identical_across_strategies(self):
        """The paired-comparison guarantee: same seed, same trace."""
        cfg = ExperimentConfig(n_tasks=50)
        t_a = cfg.workload().generate(seed=3)
        t_b = cfg.with_strategy("unifincr-model").workload().generate(seed=3)
        assert [t.keys() for t in t_a] == [t.keys() for t in t_b]
        assert [t.arrival_time for t in t_a] == [t.arrival_time for t in t_b]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_tasks=0)
        with pytest.raises(ValueError):
            ExperimentConfig(load=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(credits_measurement_interval=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_keys", 0),
            ("mean_fanout", 0.5),
            ("mean_fanout", 1.0),
            ("zipf_skew", 0.0),
            ("playlist_fraction", -0.1),
            ("playlist_fraction", 1.0),
        ],
    )
    def test_workload_values_rejected_at_construction(self, field, value):
        """A workload no run could draw is refused by the config itself,
        not by every run that later builds the trace models."""
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(n_tasks=200, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_keys", 1),
            ("mean_fanout", 1.01),
            ("zipf_skew", 0.01),
            ("playlist_fraction", 0.0),
            ("playlist_fraction", 0.99),
        ],
    )
    def test_workload_boundary_values_build_a_workload(self, field, value):
        """The checks refuse only what the trace models refuse: a value
        just inside each bound builds a workload and draws its tasks."""
        cfg = ExperimentConfig(n_tasks=200, **{field: value})
        tasks = cfg.workload().generate(seed=1)
        assert len(tasks) == 200
        assert all(1 <= task.fanout <= cfg.n_keys for task in tasks)

    def test_hot_shard_heats_the_named_partition(self):
        from repro.harness.config import HOT_SHARD_WEIGHT
        from repro.workload import SubsetHotspotPopularity

        cfg = ExperimentConfig(n_tasks=200, n_keys=2000, hot_shard=2)
        popularity = cfg.workload().popularity
        assert isinstance(popularity, SubsetHotspotPopularity)
        assert popularity.weight == HOT_SHARD_WEIGHT
        placement = cfg.cluster.make_placement()
        assert popularity.hot_keys == [
            k for k in range(2000) if placement.partition_of(k) == 2
        ]

    def test_credits_interval_must_fit_the_epoch(self):
        """An interval longer than the credits epoch is rejected by the
        config, not later inside the controller (nor carried silently by
        a strategy that never builds one)."""
        ExperimentConfig(credits_measurement_interval=DEFAULT_EPOCH)
        for strategy in ("unifincr-credits", "c3"):
            with pytest.raises(ValueError, match="credits_measurement_interval"):
                ExperimentConfig(strategy=strategy, credits_measurement_interval=2.0)

    def test_congestion_check_interval_must_be_positive(self):
        """A non-positive congestion-check period is rejected by the config
        for every strategy, not later by a credits run's servers (nor
        carried silently by a strategy whose servers never check)."""
        for strategy in ("unifincr-credits", "c3"):
            for interval in (0.0, -1.0):
                with pytest.raises(ValueError, match="congestion_check_interval"):
                    ExperimentConfig(
                        strategy=strategy, congestion_check_interval=interval
                    )

    @pytest.mark.parametrize("target", [0, -1])
    def test_slo_target_must_be_positive(self, target):
        """A non-positive windowed-p99 target is refused by the config in
        every mode that reads one; the SLO loop does not check it again."""
        for mode in ("monitor", "slo"):
            with pytest.raises(ValueError, match="slo_p99_ms must be positive"):
                ExperimentConfig(remediation=mode, slo_p99_ms=target)

    # The single-slowdown sugar is `repro run --slow-server ID` now: the
    # config itself only knows `fault_schedule`.
    RUN = ["run", "--strategy", "oblivious-random", "--tasks", "60"]

    def test_negative_slowdown_server_is_a_usage_error(self, capsys):
        """A negative id is no server: the run refuses it, as it does an id
        past the last server, instead of silently dropping the fault."""
        assert main([*self.RUN, "--slow-server", "-7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0..8" in captured.err

    def test_slowdown_server_range_error_names_range(self, capsys):
        with pytest.raises(ValueError, match=r"0\.\.8"):
            ExperimentConfig(
                fault_schedule=FaultSchedule((SlowdownFault(servers=(9,)),))
            )
        assert main([*self.RUN, "--slow-server", "9"]) == 2
        assert "0..8" in capsys.readouterr().err

    def test_slowdown_factor_validated_when_enabled(self):
        with pytest.raises(ValueError, match="slowdown factor"):
            SlowdownFault(servers=(0,), factor=1.0)

    def test_fault_schedule_targets_validated(self):
        with pytest.raises(ValueError, match="valid ids"):
            ExperimentConfig(
                fault_schedule=FaultSchedule((SlowdownFault(servers=(99,)),))
            )

    def test_faults_combines_schedule_and_legacy_slowdown(self, capsys):
        """--slow-server appends to the scenario's script, after its events."""
        argv = [*self.RUN, "--scenario", "flash-crowd", "--slow-server", "2"]
        assert main(argv) == 0
        faults = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("fault:")
        ]
        assert len(faults) == 2 and faults[0].startswith("fault: flash crowd")
        assert faults[1] == "fault: slowdown x3 on servers [2] @0.25s for 0.5s"

    def test_describe_mentions_strategy(self):
        assert "c3" in ExperimentConfig(strategy="c3").describe()

    def test_paper_figure2_config(self):
        cfg = ExperimentConfig(n_tasks=500)  # the defaults are Figure 2's
        assert cfg.n_tasks == 500
        assert cfg.load == 0.70
