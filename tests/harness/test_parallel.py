"""Unit tests for the run grid: cell order, worker counts and the pool."""

import concurrent.futures
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.cli import _jobs_from, build_parser
from repro.harness import ExperimentConfig
from repro.harness import parallel
from repro.harness.parallel import run_grid, run_seeds
from repro.scenarios import SCENARIOS, get_scenario

TINY = ExperimentConfig(strategy="oblivious-random", n_tasks=60, n_keys=500)
STRATEGIES = ("oblivious-random", "oblivious-lor")


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_configs_pickle(name):
    """Configs are what cross the process boundary, so every scenario's
    (fault script, topology and remediation included) must pickle."""
    config = get_scenario(name).build_config(strategy="oblivious-lor", n_tasks=50)
    assert pickle.loads(pickle.dumps(config)) == config


def _pool_sizes(monkeypatch):
    """Record the ``max_workers`` of every process pool ``run_grid`` opens."""
    sizes = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return sizes


class TestExecutors:
    def _grid(self):
        return [{s: TINY.with_strategy(s) for s in STRATEGIES}]

    def test_serial_preserves_grid_order(self):
        (grouped,) = run_grid(self._grid(), seeds=(1, 2))
        assert [
            (r.config.strategy, r.seed) for runs in grouped.values() for r in runs
        ] == [(s, seed) for s in STRATEGIES for seed in (1, 2)]

    def test_process_pool_matches_serial(self):
        (one_worker,) = run_grid(self._grid(), seeds=(1, 2), jobs=1)
        (two_workers,) = run_grid(self._grid(), seeds=(1, 2), jobs=2)
        assert list(one_worker) == list(two_workers) == list(STRATEGIES)
        for name in STRATEGIES:
            for s, p in zip(one_worker[name], two_workers[name]):
                assert s.seed == p.seed
                assert s.config == p.config
                assert s.task_latencies.values() == p.task_latencies.values()
                assert s.extras == p.extras

    def test_process_executor_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="at least one worker"):
            run_grid(self._grid(), seeds=(1,), jobs=-1)

    @pytest.mark.parametrize(
        "grid, seeds, jobs",
        [
            ([{"a": TINY}], (1,), 8),
            ([{s: TINY.with_strategy(s) for s in STRATEGIES}], (1, 2), 1),
        ],
        ids=["one-cell-many-workers", "many-cells-one-worker"],
    )
    def test_in_process_never_starts_a_pool(self, monkeypatch, grid, seeds, jobs):
        """One cell or one worker runs here: ``repro run``'s single seed
        must not pay for (or depend on) a process pool."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        results = run_grid(grid, seeds, jobs)
        assert [len(runs) for runs in results[0].values()] == [len(seeds)] * len(
            grid[0]
        )

    @staticmethod
    def _from_flags(*flags):
        """The worker count ``repro sweep <flags>`` would run its grid on."""
        argv = ["sweep", "--parameter", "load", "--values", "0.5", *flags]
        return _jobs_from(build_parser().parse_args(argv))

    def test_make_executor_mapping(self):
        assert self._from_flags() == 1  # no --jobs: one worker
        assert self._from_flags("--jobs", "1") == 1
        assert self._from_flags("--jobs", "4") == 4
        assert self._from_flags("--jobs", "0") == 0  # all cores, in run_grid

    def test_zero_jobs_means_all_cores(self, monkeypatch):
        """``jobs=0`` sizes the pool by the core count (capped by the grid)."""
        sizes = _pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_seeds(TINY, seeds=(1, 2, 3), jobs=0)
        assert sizes == [2]

    def test_pool_is_capped_by_cell_count(self, monkeypatch):
        """More workers than cells never opens idle worker processes."""
        sizes = _pool_sizes(monkeypatch)
        run_seeds(TINY, seeds=(1, 2), jobs=8)
        assert sizes == [2]

    def test_execute_matches_run_experiment(self):
        """A cell run in a worker is exactly ``run_experiment(config, seed)``."""
        (grouped,) = run_grid(self._grid(), seeds=(3,), jobs=2)
        for name in STRATEGIES:
            (pooled,) = grouped[name]
            direct = parallel.run_experiment(TINY.with_strategy(name), 3)
            assert pooled.task_latencies.values() == direct.task_latencies.values()
            assert pooled.events_processed == direct.events_processed
            assert pooled.extras == direct.extras


def _figure2_runs():
    """Figure 2's five strategies (both push servers and the pull model) at
    two seeds: every run's ``to_dict()``, as canonical JSON."""
    from repro.harness.figures import figure2

    comparison = figure2(n_tasks=300, seeds=(1, 2))
    return json.dumps(
        {
            name: [run.to_dict() for run in result.runs]
            for name, result in comparison.strategies.items()
        },
        sort_keys=True,
    )


def test_grid_in_a_warm_process_matches_a_fresh_process():
    """The process-wide memos (key partitions, value sizes) cannot change a
    result: a grid run twice here equals the same grid in a new process."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)), os.path.dirname(__file__)]
        ),
    )
    fresh = subprocess.run(
        [sys.executable, "-c", "import test_parallel as t; print(t._figure2_runs())"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.strip()  # fmt: skip
    assert _figure2_runs() == fresh
    assert _figure2_runs() == fresh


class TestGridHelpers:
    def test_enumerate_order_is_value_strategy_seed(self, monkeypatch):
        per_value = {"a": TINY, "b": TINY.with_strategy("oblivious-lor")}
        submitted = []
        run_experiment = parallel.run_experiment

        def spy(config, seed):
            submitted.append((config.strategy, seed))
            return run_experiment(config, seed)

        monkeypatch.setattr(parallel, "run_experiment", spy)
        run_grid([per_value, per_value], seeds=(1, 2))
        assert submitted == [
            ("oblivious-random", 1), ("oblivious-random", 2),
            ("oblivious-lor", 1), ("oblivious-lor", 2),
        ] * 2

    def test_split_by_strategy_tiles(self):
        grid = {s: TINY.with_strategy(s) for s in STRATEGIES}
        (grouped,) = run_grid([grid], seeds=(1, 2))
        assert list(grouped) == list(STRATEGIES)
        assert [r.seed for r in grouped["oblivious-random"]] == [1, 2]
        assert all(
            r.config.strategy == "oblivious-lor" for r in grouped["oblivious-lor"]
        )

    def test_labels_keep_mapping_order(self):
        """Results are keyed by the caller's labels, in the caller's order,
        whatever strategy each label's config names."""
        per_value = {"z": TINY.with_strategy("oblivious-lor"), "a": TINY}
        (grouped,) = run_grid([per_value], seeds=(1,), jobs=2)
        assert list(grouped) == ["z", "a"]
        assert grouped["z"][0].config.strategy == "oblivious-lor"
        assert grouped["a"][0].config.strategy == "oblivious-random"

    def test_run_seeds_in_seed_order(self):
        """Unsorted seeds come back in the order they were given."""
        runs = run_seeds(TINY, seeds=(3, 1, 2), jobs=2)
        assert [r.seed for r in runs] == [3, 1, 2]

    def test_empty_grid_runs_nothing(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert run_grid([], seeds=(1, 2), jobs=4) == []

    def test_grid_needs_a_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_grid([{"a": TINY}], seeds=())
