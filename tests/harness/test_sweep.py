"""Unit tests for the generic parameter-sweep API."""

import pytest

from repro.harness import ExperimentConfig
from repro.harness.sweep import SweepResult, _replace_parameter, sweep


class TestReplaceParameter:
    def test_top_level_field(self):
        cfg = _replace_parameter(ExperimentConfig(), "load", 0.5)
        assert cfg.load == 0.5

    def test_cluster_field(self):
        cfg = _replace_parameter(
            ExperimentConfig(), "cluster.one_way_latency", 1e-3
        )
        assert cfg.cluster.one_way_latency == 1e-3
        assert cfg.cluster.n_servers == 9  # other fields preserved

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            _replace_parameter(ExperimentConfig(), "does_not_exist", 1)
        with pytest.raises(ValueError):
            _replace_parameter(ExperimentConfig(), "cluster.nope", 1)
        with pytest.raises(ValueError):
            _replace_parameter(ExperimentConfig(), "workload.load", 1)

    def test_unknown_top_level_message_names_field_and_candidates(self):
        with pytest.raises(ValueError) as exc:
            _replace_parameter(ExperimentConfig(), "does_not_exist", 1)
        msg = str(exc.value)
        assert "unknown config field 'does_not_exist'" in msg
        assert "ExperimentConfig" in msg
        assert "n_tasks" in msg  # candidates listed

    def test_unknown_nested_message_shows_full_path(self):
        with pytest.raises(ValueError) as exc:
            _replace_parameter(ExperimentConfig(), "cluster.warp_factor", 1)
        msg = str(exc.value)
        assert "unknown config field 'cluster.warp_factor'" in msg
        assert "ClusterSpec" in msg
        assert "n_servers" in msg

    def test_descending_into_non_dataclass_rejected(self):
        with pytest.raises(ValueError, match="cannot descend into 'load'"):
            _replace_parameter(ExperimentConfig(), "load.deeper", 1)

    def test_malformed_paths_rejected(self):
        for path in ("cluster.", ".load", "cluster..n_servers"):
            with pytest.raises(ValueError, match="malformed parameter path"):
                _replace_parameter(ExperimentConfig(), path, 1)

    def test_arbitrary_depth_via_nested_dataclass(self):
        """Paths deeper than one level work for any dataclass chain."""
        import dataclasses as dc

        @dc.dataclass(frozen=True)
        class Inner:
            knob: int = 1

        @dc.dataclass(frozen=True)
        class Middle:
            inner: Inner = dc.field(default_factory=Inner)

        @dc.dataclass(frozen=True)
        class Outer:
            middle: Middle = dc.field(default_factory=Middle)

        out = _replace_parameter(Outer(), "middle.inner.knob", 7)
        assert out.middle.inner.knob == 7
        with pytest.raises(ValueError) as exc:
            _replace_parameter(Outer(), "middle.inner.missing", 7)
        assert "unknown config field 'middle.inner.missing'" in str(exc.value)


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep(
            ExperimentConfig(n_tasks=200, n_keys=2000),
            parameter="load",
            values=[0.4, 0.7],
            strategies=("oblivious-random", "oblivious-lor"),
            seeds=(1,),
        )

    def test_structure(self, small_sweep):
        assert small_sweep.values == (0.4, 0.7)
        assert set(small_sweep.comparisons) == {0.4, 0.7}
        for comparison in small_sweep.comparisons.values():
            assert set(comparison.strategies) == {
                "oblivious-random",
                "oblivious-lor",
            }

    def test_percentile_series(self, small_sweep):
        """One strategy's percentile along the sweep is a column of rows()."""
        series = [
            (row["load"], row["oblivious-lor p99 (ms)"])
            for row in small_sweep.rows(99.0)
        ]
        assert [v for v, _ in series] == [0.4, 0.7]
        assert all(latency > 0 for _, latency in series)

    def test_speedup_series(self, small_sweep):
        series = [
            small_sweep.comparisons[v].speedup(
                "oblivious-random", "oblivious-lor"
            )[50.0]
            for v in small_sweep.values
        ]
        assert len(series) == 2
        assert all(ratio > 0 for ratio in series)

    def test_rows_and_render(self, small_sweep):
        rows = small_sweep.rows(99.0)
        assert len(rows) == 2
        assert "load" in rows[0]
        text = small_sweep.render(99.0)
        assert "sweep over load" in text

    def test_to_dict(self, small_sweep):
        d = small_sweep.to_dict()
        assert d["parameter"] == "load"
        assert set(d["points"]) == {"0.4", "0.7"}

    def test_validates(self):
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(), "load", [], ("c3",))
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(), "load", [0.5], ())


class TestScenarioSweep:
    def test_scenario_name_as_base(self):
        result = sweep(
            "hotspot-skew",
            parameter="zipf_skew",
            values=[0.9, 1.2],
            strategies=("oblivious-random",),
            seeds=(1,),
            n_tasks=200,
        )
        assert result.values == (0.9, 1.2)
        for comparison in result.comparisons.values():
            runs = comparison.strategies["oblivious-random"].runs
            assert all(r.config.scenario == "hotspot-skew" for r in runs)
            assert all(r.config.n_tasks == 200 for r in runs)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            sweep("nope", "load", [0.5], ("c3",))

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            sweep(ExperimentConfig(n_tasks=10), "load", [0.5], ("warp-drive",))

    def test_n_tasks_requires_scenario(self):
        with pytest.raises(ValueError, match="only meaningful"):
            sweep(ExperimentConfig(n_tasks=10), "load", [0.5],
                  ("oblivious-random",), n_tasks=100)
