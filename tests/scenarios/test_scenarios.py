"""Unit tests for the scenario layer: specs, registry, the built-in library."""

import dataclasses

import pytest

from repro.cluster.faults import FaultSchedule, SlowdownFault
from repro.harness import ExperimentConfig, run_experiment
from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    make_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)

REQUIRED = (
    "steady-state",
    "straggler",
    "recurring-gc",
    "flash-crowd",
    "hotspot-skew",
    "heterogeneous-cluster",
)


class TestLibrary:
    def test_required_scenarios_registered(self):
        names = scenario_names()
        for name in REQUIRED:
            assert name in names
        assert len(names) >= 6

    def test_every_scenario_builds_a_valid_config(self):
        for name in SCENARIOS:
            cfg = SCENARIOS[name].build_config(strategy="c3", n_tasks=50)
            assert isinstance(cfg, ExperimentConfig)
            assert cfg.scenario == name
            assert cfg.n_tasks == 50

    def test_straggler_faults_target_valid_servers(self):
        cfg = get_scenario("straggler").build_config(n_tasks=10)
        schedule = cfg.fault_schedule
        assert len(schedule) == 1
        assert schedule.events[0].factor == 4.0

    def test_hotspot_overrides_workload(self):
        cfg = get_scenario("hotspot-skew").build_config(n_tasks=10)
        assert cfg.zipf_skew == 1.2
        assert cfg.n_keys == 20_000

    def test_flash_crowd_lowers_base_load(self):
        cfg = get_scenario("flash-crowd").build_config(n_tasks=10)
        assert cfg.load == pytest.approx(0.60)
        assert cfg.fault_schedule.events[0].kind == "flash-crowd"


class TestSpec:
    def test_spec_is_frozen_and_hashable(self):
        spec = get_scenario("steady-state")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "other"
        hash(spec)

    def test_overrides_win_over_scenario(self):
        cfg = get_scenario("hotspot-skew").build_config(
            n_tasks=10, zipf_skew=0.5
        )
        assert cfg.zipf_skew == 0.5

    def test_reserved_overrides_rejected(self):
        with pytest.raises(ValueError, match="may not override"):
            make_scenario("bad", "x", overrides={"strategy": "c3"})

    def test_describe_mentions_faults(self):
        text = get_scenario("straggler").describe()
        assert "straggler" in text and "slowdown" in text


class TestRegistry:
    def test_unknown_scenario_error_lists_known(self):
        with pytest.raises(ValueError, match="unknown scenario.*steady-state"):
            get_scenario("does-not-exist")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("straggler"))

    def test_third_party_registration_roundtrip(self):
        spec = make_scenario(
            "test-tmp",
            "temporary",
            faults=FaultSchedule((SlowdownFault(servers=(1,), factor=2.0),)),
        )
        register_scenario(spec)
        try:
            assert "test-tmp" in SCENARIOS
            assert SCENARIOS["test-tmp"] is spec
        finally:
            unregister_scenario("test-tmp")
        assert "test-tmp" not in SCENARIOS

    def test_mapping_view(self):
        assert len(SCENARIOS) == len(scenario_names())
        assert set(iter(SCENARIOS)) == set(scenario_names())


class TestScenarioRuns:
    """Scaled-down end-to-end runs: conservation under each fault shape."""

    @pytest.mark.parametrize("name", ["crash-restart", "recurring-gc"])
    def test_faulted_scenarios_conserve_tasks(self, name):
        cfg = get_scenario(name).build_config(
            strategy="oblivious-lor", n_tasks=600, n_keys=2000
        )
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 600

    def test_crash_restart_fires_and_conserves(self):
        # Enough tasks that the 0.1s crash onset lies inside the run.
        cfg = get_scenario("crash-restart").build_config(
            strategy="oblivious-lor", n_tasks=2500, n_keys=2000
        )
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 2500
        assert result.extras["crash_windows"] >= 1


class TestBuildConfigOverrides:
    def test_cluster_replaceable_at_call_time(self):
        from repro.cluster.topology import ClusterSpec
        from repro.scenarios import get_scenario

        cfg = get_scenario("steady-state").build_config(
            n_tasks=10, cluster=ClusterSpec(n_servers=3, cores_per_server=2)
        )
        assert cfg.cluster.n_servers == 3

    def test_fault_schedule_replaceable_at_call_time(self):
        from repro.cluster.faults import NO_FAULTS
        from repro.scenarios import get_scenario

        cfg = get_scenario("straggler").build_config(
            n_tasks=10, fault_schedule=NO_FAULTS
        )
        assert len(cfg.fault_schedule) == 0

    def test_scenario_name_not_overridable(self):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match="cannot be overridden"):
            get_scenario("steady-state").build_config(scenario="other")


class TestRemediatedPairs:
    """The ``*-remediated`` twins close the SLO loop on a fault scenario."""

    PAIRS = (
        ("hot-shard", "hot-shard-remediated"),
        ("flash-crowd", "flash-crowd-remediated"),
        ("crash-restart", "crash-restart-remediated"),
    )

    def test_pairs_are_registered(self):
        names = scenario_names()
        for base, remediated in self.PAIRS:
            assert base in names
            assert remediated in names

    def test_remediated_twins_enable_the_slo_loop(self):
        from repro.scenarios.library import REMEDIATION_SLO_P99_MS

        for _, remediated in self.PAIRS:
            cfg = get_scenario(remediated).build_config(n_tasks=10)
            assert cfg.remediation == "slo"
            assert cfg.slo_p99_ms == REMEDIATION_SLO_P99_MS

    def test_twins_share_the_fault_shape(self):
        for base, remediated in self.PAIRS:
            base_cfg = get_scenario(base).build_config(n_tasks=10)
            rem_cfg = get_scenario(remediated).build_config(n_tasks=10)
            assert [f.kind for f in base_cfg.fault_schedule.events] == [
                f.kind for f in rem_cfg.fault_schedule.events
            ]

    def test_remediated_run_conserves_and_streams(self):
        cfg = get_scenario("hot-shard-remediated").build_config(
            strategy="c3", n_tasks=800, n_keys=2000
        )
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 800
        assert result.extras["bus_snapshots"] > 0
        assert "slo_breach_windows" in result.extras
        assert "remediation_actions" in result.extras

    def test_slo_mode_beats_monitor_on_the_hot_shard(self):
        """The acceptance comparison: same seed, same fault, the only
        difference is whether the detector's policy may act.  Remediation
        must strictly reduce both breach windows and the windowed p99."""
        spec = get_scenario("hot-shard")
        runs = {}
        for mode in ("monitor", "slo"):
            cfg = spec.build_config(
                strategy="c3",
                n_tasks=3000,
                remediation=mode,
                slo_p99_ms=10.0,
            )
            runs[mode] = run_experiment(cfg, seed=1)
        monitor, slo = runs["monitor"], runs["slo"]
        assert monitor.tasks_completed == slo.tasks_completed == 3000
        assert monitor.extras["remediation_actions"] == 0.0
        assert slo.extras["remediation_actions"] >= 1.0
        assert (
            slo.extras["slo_breach_windows"]
            < monitor.extras["slo_breach_windows"]
        )
        assert slo.summary().p99 < monitor.summary().p99
