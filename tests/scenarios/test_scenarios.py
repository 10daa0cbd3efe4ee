"""Unit tests for the scenario layer: specs and the scenario table."""

import dataclasses

import pytest

from repro.cluster.topology import ClusterSpec
from repro.harness import ExperimentConfig, run_experiment
from repro.scenarios import SCENARIOS, get_scenario, make_scenario

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
        for name in REQUIRED:
            assert name in SCENARIOS
        assert len(SCENARIOS) >= 6

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


class TestListing:
    """``repro scenarios --json`` lists what differs from the defaults."""

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_listing_rebuilds_the_config(self, name):
        """The listed overrides go back into the constructors, the fault
        script as the spec's own object: the config equals the built one."""
        spec = SCENARIOS[name]
        listing = spec.to_dict()
        rebuilt = ExperimentConfig(
            strategy="c3",
            n_tasks=50,
            scenario=name,
            cluster=ClusterSpec(**listing["cluster_overrides"]),
            fault_schedule=spec.faults,
            **listing["config_overrides"],
        )
        assert rebuilt == spec.build_config(strategy="c3", n_tasks=50)

    def test_a_bad_scenario_fails_at_definition(self):
        with pytest.raises(ValueError, match="hot_shard 9 out of range"):
            make_scenario("bad", "x", overrides={"hot_shard": 9})


class TestRegistry:
    def test_unknown_scenario_error_lists_known(self):
        with pytest.raises(ValueError, match="unknown scenario.*steady-state"):
            get_scenario("does-not-exist")

    def test_mapping_view(self):
        """A plain dict keyed by each spec's own name; fifteen entries, so
        no two specs in the table share a name."""
        assert type(SCENARIOS) is dict
        assert all(spec.name == name for name, spec in SCENARIOS.items())
        assert len(SCENARIOS) == 15


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
        for base, remediated in self.PAIRS:
            assert base in SCENARIOS
            assert remediated in SCENARIOS

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
