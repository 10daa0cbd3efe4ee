"""Unit tests for the parallel grid executor, job digests and cache."""

import dataclasses
import pickle

import pytest

from repro.cli import _executor_from, build_parser
from repro.harness import ExperimentConfig
from repro.harness import parallel
from repro.harness.parallel import (
    GridExecutor,
    ResultCache,
    RunJob,
    config_digest,
    run_grid,
)
from repro.scenarios import get_scenario

TINY = ExperimentConfig(strategy="oblivious-random", n_tasks=60, n_keys=500)


class TestDigest:
    def test_stable_across_equal_configs(self):
        a = config_digest(ExperimentConfig(n_tasks=100), 1)
        b = config_digest(ExperimentConfig(n_tasks=100), 1)
        assert a == b

    def test_sensitive_to_seed_and_fields(self):
        base = config_digest(TINY, 1)
        assert config_digest(TINY, 2) != base
        assert config_digest(dataclasses.replace(TINY, load=0.5), 1) != base

    def test_sensitive_to_nested_fields(self):
        slow = dataclasses.replace(
            TINY, cluster=dataclasses.replace(TINY.cluster, one_way_latency=1e-3)
        )
        assert config_digest(slow, 1) != config_digest(TINY, 1)

    def test_sensitive_to_fault_schedule(self):
        faulty = get_scenario("straggler").build_config(
            strategy="oblivious-random", n_tasks=60
        )
        clean = get_scenario("steady-state").build_config(
            strategy="oblivious-random", n_tasks=60
        )
        assert config_digest(faulty, 1) != config_digest(clean, 1)

    def test_covers_field_names(self):
        """The digest is over field *names* too, so a PR that removes config
        fields (ISSUE 19 dropped seven) orphans every older cache entry:
        it reads as a miss without a ``CACHE_FORMAT_VERSION`` bump."""
        canonical = parallel._canonical(TINY)
        assert set(canonical) == {"__dataclass__"} | {
            f.name for f in dataclasses.fields(ExperimentConfig)
        }
        # TINY's digest at the last commit that still had the 31 fields.
        assert config_digest(TINY, 1) != (
            "b4ce5f9c5e5213fe7abb8169fdcef84f0e42c058adfa43ef222215bdf9606526"
        )

    def test_is_hex_sha256(self):
        digest = config_digest(TINY, 1)
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestRunJob:
    def test_jobs_pickle(self):
        job = RunJob(config=TINY, seed=3)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.digest() == job.digest()

    def test_scenario_configs_pickle(self):
        for name in ("straggler", "flash-crowd", "crash-restart"):
            config = get_scenario(name).build_config(
                strategy="oblivious-lor", n_tasks=50
            )
            job = RunJob(config=config, seed=1)
            assert pickle.loads(pickle.dumps(job)) == job

    def test_execute_matches_run_experiment(self):
        from repro.harness import run_experiment

        direct = run_experiment(TINY, seed=2)
        via_job = RunJob(config=TINY, seed=2).execute()
        assert via_job.task_latencies.values() == direct.task_latencies.values()
        assert via_job.extras == direct.extras


class TestExecutors:
    def _grid(self):
        return [
            RunJob(config=TINY.with_strategy(s), seed=seed)
            for s in ("oblivious-random", "oblivious-lor")
            for seed in (1, 2)
        ]

    def test_serial_preserves_grid_order(self):
        jobs = self._grid()
        results = GridExecutor().run_jobs(jobs)
        assert [(r.config.strategy, r.seed) for r in results] == [
            (j.config.strategy, j.seed) for j in jobs
        ]

    def test_process_pool_matches_serial(self):
        jobs = self._grid()
        one_worker = GridExecutor(jobs=1).run_jobs(jobs)
        two_workers = GridExecutor(jobs=2).run_jobs(jobs)
        for s, p in zip(one_worker, two_workers):
            assert s.seed == p.seed
            assert s.config == p.config
            assert s.task_latencies.values() == p.task_latencies.values()
            assert s.extras == p.extras

    def test_process_executor_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            GridExecutor(jobs=-1)

    @staticmethod
    def _from_flags(*flags):
        """The executor ``repro sweep <flags>`` would run its grid on."""
        argv = ["sweep", "--parameter", "load", "--values", "0.5", *flags]
        return _executor_from(build_parser().parse_args(argv))

    def test_make_executor_mapping(self):
        import os

        assert GridExecutor().jobs == 1
        assert self._from_flags().jobs == 1  # no --jobs: one worker
        assert self._from_flags("--jobs", "1").jobs == 1
        assert self._from_flags("--jobs", "4").jobs == 4
        assert self._from_flags("--jobs", "0").jobs == (os.cpu_count() or 1)
        assert self._from_flags().cache is None

    def test_make_executor_cache_dir(self, tmp_path):
        ex = self._from_flags("--jobs", "1", "--cache", str(tmp_path / "c"))
        assert ex.cache is not None
        assert ex.cache.root == tmp_path / "c"


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = RunJob(config=TINY, seed=1)
        assert cache.get(job) is None
        result = job.execute()
        cache.put(job, result)
        cached = cache.get(job)
        assert cached is not None
        assert cached.task_latencies.values() == result.task_latencies.values()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = RunJob(config=TINY, seed=1)
        cache.put(job, job.execute())
        path = cache._path(job.digest())
        path.write_bytes(b"not a pickle")
        assert cache.get(job) is None

    def test_executor_skips_cached_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [RunJob(config=TINY, seed=s) for s in (1, 2)]
        ex = GridExecutor(cache=cache)
        first = ex.run_jobs(jobs)
        second = ex.run_jobs(jobs)
        assert cache.stores == 2
        assert cache.hits == 2
        for a, b in zip(first, second):
            assert a.task_latencies.values() == b.task_latencies.values()

    def test_default_root_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().root == tmp_path / "envcache"

    def test_cells_stored_as_completed_not_at_batch_end(self, tmp_path, monkeypatch):
        """An interrupted grid must keep its finished cells in the cache."""
        cache = ResultCache(tmp_path)
        boom = RunJob(config=TINY.with_strategy("oblivious-lor"), seed=2)
        run_experiment = parallel.run_experiment

        def interrupted(config, seed):
            if (config, seed) == (boom.config, boom.seed):
                raise KeyboardInterrupt  # simulate Ctrl-C mid-grid
            return run_experiment(config, seed)

        monkeypatch.setattr(parallel, "run_experiment", interrupted)
        jobs = [RunJob(config=TINY, seed=1), boom]
        with pytest.raises(KeyboardInterrupt):
            GridExecutor(cache=cache).run_jobs(jobs)
        assert cache.stores == 1  # the completed cell survived
        assert cache.get(jobs[0]) is not None

    def test_short_uncached_batch_raises_immediately(self):
        class Short(GridExecutor):
            def run_jobs(self, jobs):
                return []

        with pytest.raises(RuntimeError, match="returned 0 results for 2 jobs"):
            run_grid([{"a": TINY}], seeds=(1, 2), executor=Short())

    def test_stale_unpicklable_entry_reads_as_miss(self, tmp_path):
        """Entries whose classes no longer import must not crash the sweep."""
        cache = ResultCache(tmp_path)
        job = RunJob(config=TINY, seed=1)
        path = cache._path(job.digest())
        path.parent.mkdir(parents=True, exist_ok=True)
        # A pickle referencing a module that does not exist anymore.
        path.write_bytes(
            b"\x80\x04\x95\x1e\x00\x00\x00\x00\x00\x00\x00\x8c\x0cgone_module1"
            b"\x94\x8c\x07Missing\x94\x93\x94."
        )
        assert cache.get(job) is None


class TestGridHelpers:
    def test_enumerate_order_is_value_strategy_seed(self, monkeypatch):
        per_value = {"a": TINY, "b": TINY.with_strategy("oblivious-lor")}
        submitted = []
        run_jobs = GridExecutor.run_jobs

        def spy(self, jobs):
            submitted.extend(jobs)
            return run_jobs(self, jobs)

        monkeypatch.setattr(GridExecutor, "run_jobs", spy)
        run_grid([per_value, per_value], seeds=(1, 2))
        coords = [(j.config.strategy, j.seed) for j in submitted]
        assert coords == [
            ("oblivious-random", 1), ("oblivious-random", 2),
            ("oblivious-lor", 1), ("oblivious-lor", 2),
        ] * 2

    def test_split_by_strategy_tiles(self):
        grid = {
            s: TINY.with_strategy(s) for s in ("oblivious-random", "oblivious-lor")
        }
        (grouped,) = run_grid([grid], seeds=(1, 2))
        assert list(grouped) == ["oblivious-random", "oblivious-lor"]
        assert [r.seed for r in grouped["oblivious-random"]] == [1, 2]
        assert all(
            r.config.strategy == "oblivious-lor" for r in grouped["oblivious-lor"]
        )

    def test_split_rejects_ragged_blocks(self):
        """A result list that does not tile strategies x seeds is refused."""

        class Ragged(GridExecutor):
            def run_jobs(self, jobs):
                return GridExecutor.run_jobs(self, jobs[:3])

        grid = {s: TINY.with_strategy(s) for s in ("oblivious-random", "oblivious-lor")}
        with pytest.raises(RuntimeError, match="returned 3 results for 4 jobs"):
            run_grid([grid], seeds=(1, 2), executor=Ragged())

    def test_grid_needs_a_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_grid([{"a": TINY}], seeds=())
