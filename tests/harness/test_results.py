"""Unit tests for result aggregation across strategies and seeds."""

import json

import pytest

from repro.harness import ExperimentConfig, compare_strategies, run_seeds
from repro.harness.results import StrategyResult


@pytest.fixture(scope="module")
def small_comparison():
    cfg = ExperimentConfig(n_tasks=300, n_keys=2000)
    seeds = [1, 2]
    results = {
        name: run_seeds(cfg.with_strategy(name), seeds)
        for name in ("oblivious-random", "oblivious-lor")
    }
    return compare_strategies(results)


class TestStrategyResult:
    def test_mean_summary_averages_seeds(self, small_comparison):
        sres = small_comparison.strategies["oblivious-random"]
        per_seed = sres.per_seed_summaries()
        mean = sres.mean_summary()
        for p in (50.0, 95.0, 99.0):
            manual = sum(s.percentile(p) for s in per_seed) / len(per_seed)
            assert mean.percentile(p) == pytest.approx(manual)

    def test_percentile_spread(self, small_comparison):
        lo, hi = small_comparison.strategies["oblivious-random"].percentile_spread(99.0)
        assert lo <= hi

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            StrategyResult(strategy="x", runs=[])


class TestComparisonResult:
    def test_speedup_is_ratio(self, small_comparison):
        ratios = small_comparison.speedup("oblivious-random", "oblivious-lor")
        manual = small_comparison.summary_of("oblivious-random").percentile(
            50.0
        ) / small_comparison.summary_of("oblivious-lor").percentile(50.0)
        assert ratios[50.0] == pytest.approx(manual)

    def test_gap_to_ideal_sign(self, small_comparison):
        gaps = small_comparison.gap_to_ideal("oblivious-random", "oblivious-lor")
        for p, gap in gaps.items():
            ratio = small_comparison.speedup("oblivious-random", "oblivious-lor")[p]
            assert gap == pytest.approx(ratio - 1.0)

    def test_to_dict_and_json(self, small_comparison):
        d = small_comparison.to_dict()
        assert d["seeds"] == [1, 2]
        assert "oblivious-random" in d["strategies"]
        entry = d["strategies"]["oblivious-random"]
        assert "p99" in entry["percentiles_ms"]
        assert len(entry["per_seed_p99_ms"]) == 2
        assert json.loads(small_comparison.canonical_json())["seeds"] == [1, 2]

    def test_mismatched_seed_grids_rejected(self):
        cfg = ExperimentConfig(n_tasks=100, n_keys=1000)
        a = run_seeds(cfg.with_strategy("oblivious-random"), [1])
        b = run_seeds(cfg.with_strategy("oblivious-lor"), [2])
        with pytest.raises(ValueError, match="seed grid"):
            compare_strategies({"a": a, "b": b})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_strategies({})
