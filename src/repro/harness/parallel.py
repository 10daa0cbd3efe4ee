"""The run grid: every (value x strategy x seed) block, on any worker count.

Every simulation run is a pure function of ``(config, seed)`` -- the
kernel's virtual clock makes results independent of wall-clock scheduling
-- so the grids behind :func:`~repro.harness.sweep.sweep`,
:func:`~repro.harness.figures.figure2`, :func:`run_seeds` and the
benchmarks are embarrassingly parallel.  They all run through one path:

* :class:`RunJob` -- one picklable grid cell (config + seed).  The
  strategy travels as a *name* inside the config; worker processes
  re-resolve it through the builder table on import, so nothing
  unpicklable (builders, environments, RNG streams) ever crosses the
  process boundary.
* :class:`GridExecutor` -- runs cells in-process when it has one worker
  (the default everywhere, :data:`SERIAL`) or one cell, and over a
  :class:`concurrent.futures.ProcessPoolExecutor` otherwise, reassembling
  results in *submission* order regardless of completion order.
* :func:`run_grid` -- flattens ``[{label: config}, ...] x seeds`` into
  cells, runs them through the executor and regroups the results.
* :class:`ResultCache` -- an on-disk cache keyed by a stable digest of
  (config, strategy, seed), so repeated sweeps skip completed cells.

Determinism argument (also in DESIGN.md): a run never reads global
mutable state -- all randomness flows from ``StreamFactory(seed)`` keyed
by stream *names*, and all time is virtual -- so executing cells
concurrently cannot change any cell's result, and because one function
enumerates and regroups the grid for every worker count, aggregate
structures (``ComparisonResult``, ``SweepResult``) cannot depend on it.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import pickle
import typing as _t
from pathlib import Path

from .config import ExperimentConfig
from .runner import RunResult, run_experiment

#: Bump when RunResult / config semantics change in a way that invalidates
#: previously cached results.
CACHE_FORMAT_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def _canonical(obj: _t.Any) -> _t.Any:
    """Recursively reduce a value to JSON-stable primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot build a stable digest over {type(obj).__name__!r}; "
        "config fields must be dataclasses or JSON primitives"
    )


def config_digest(config: ExperimentConfig, seed: int) -> str:
    """Stable hex digest of one (config, strategy, seed) grid cell.

    The digest is a SHA-256 over the canonical JSON form of the config
    (nested dataclasses included, so fault schedules and topology count)
    plus the seed and a format version.  Equal configs digest equally
    across processes and interpreter sessions; any field change -- however
    deep -- changes the digest.
    """
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "seed": int(seed),
        "config": _canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class RunJob:
    """One cell of a run grid: a picklable (config, seed) spec."""

    config: ExperimentConfig
    seed: int

    def digest(self) -> str:
        return config_digest(self.config, self.seed)

    def execute(self) -> RunResult:
        """Run this cell in the current process."""
        return run_experiment(self.config, self.seed)


class ResultCache:
    """Pickle-per-cell cache of :class:`RunResult` keyed by job digest.

    Layout: ``<root>/<digest[:2]>/<digest>.pkl``.  Writes go through a
    same-directory temporary file + :func:`os.replace`, so concurrent
    writers (parallel workers, or two sweeps racing) can never leave a
    truncated entry behind; corrupt or unreadable entries read as misses.
    """

    def __init__(self, root: _t.Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, job: RunJob) -> _t.Optional[RunResult]:
        path = self._path(job.digest())
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except Exception:
            # Unpickling a stale or garbled entry can raise nearly anything
            # (UnpicklingError, EOFError, ModuleNotFoundError after a
            # rename, ...); every such entry must read as a miss.
            self.misses += 1
            return None
        self.hits += 1
        return _t.cast(RunResult, result)

    def put(self, job: RunJob, result: RunResult) -> None:
        path = self._path(job.digest())
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self.stores += 1

    # -- maintenance (the ``repro cache`` subcommand) -----------------------
    def entries(self) -> _t.List[Path]:
        """Every cache entry currently on disk, sorted by digest."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def stats(self) -> _t.Dict[str, _t.Any]:
        """Entry count, total bytes and per-digest-prefix breakdown."""
        entries = self.entries()
        prefixes: _t.Dict[str, int] = {}
        total_bytes = 0
        for path in entries:
            prefixes[path.parent.name] = prefixes.get(path.parent.name, 0) + 1
            try:
                total_bytes += path.stat().st_size
            except OSError:  # racing writer/cleaner; count what remains
                continue
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": total_bytes,
            "prefixes": prefixes,
        }

    def clear(self) -> int:
        """Remove every entry (idempotent); returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
        if self.root.is_dir():
            for bucket in sorted(self.root.iterdir()):
                if bucket.is_dir():
                    try:
                        bucket.rmdir()
                    except OSError:
                        # Not empty -- possibly a concurrent writer racing
                        # the clear; their fresh entry is theirs to keep.
                        continue
        return removed


class GridExecutor:
    """Runs :class:`RunJob` cells over ``jobs`` workers, preserving grid order.

    ``jobs`` is the worker count (``0`` = the machine's core count).  With
    one worker, or one cell to run, the cells run in this process; otherwise
    they fan over a process pool.  Completion order is nondeterministic,
    but results are keyed back to their submission index, so callers
    observe the same list whatever the worker count.  ``cache`` is looked
    up before and filled after each cell the same way in both cases.
    """

    def __init__(self, jobs: int = 1, cache: _t.Optional[ResultCache] = None) -> None:
        if jobs < 0:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        self.cache = cache

    def run_jobs(self, jobs: _t.Sequence[RunJob]) -> _t.List[RunResult]:
        """Execute every job; results align index-for-index with ``jobs``.

        Each finished cell is cached at once, not at the end of the batch,
        so an interrupted grid keeps its finished work."""
        jobs = list(jobs)
        results = [
            self.cache.get(job) if self.cache is not None else None for job in jobs
        ]
        pending = [i for i, hit in enumerate(results) if hit is None]
        workers = min(self.jobs, len(pending))
        if workers <= 1:
            # Nothing to fan out; skip the pool (and its fork overhead).
            for i in pending:
                results[i] = self._store(jobs[i], jobs[i].execute())
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(jobs[i].execute): i for i in pending}
                for future in concurrent.futures.as_completed(futures):
                    i = futures[future]
                    results[i] = self._store(jobs[i], future.result())
        return _t.cast(_t.List[RunResult], results)

    def _store(self, job: RunJob, result: RunResult) -> RunResult:
        if self.cache is not None:
            self.cache.put(job, result)
        return result

    def __repr__(self) -> str:
        return f"<GridExecutor jobs={self.jobs}>"


#: The default everywhere an ``executor`` is accepted: one worker, no cache.
SERIAL = GridExecutor()


def run_grid(
    configs: _t.Sequence[_t.Mapping[str, ExperimentConfig]],
    seeds: _t.Sequence[int],
    executor: GridExecutor = SERIAL,
) -> _t.List[_t.Dict[str, _t.List[RunResult]]]:
    """Run [{label: config}, ...] x seeds as one grid: the only way a
    (value x strategy x seed) block is run, whatever the worker count.

    ``configs`` is one label->config mapping per swept value, *as a
    sequence* so repeated values stay distinct cells.  Grid order is
    value-major, then config, then seed; the return value mirrors the
    input, one ``{label: [RunResult per seed]}`` per mapping, ready for
    :func:`~repro.harness.results.compare_strategies`.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    jobs = [
        RunJob(config=config, seed=seed)
        for value_configs in configs
        for config in value_configs.values()
        for seed in seeds
    ]
    results = executor.run_jobs(jobs)
    if len(results) != len(jobs):  # a stand-in executor that does not tile
        raise RuntimeError(
            f"{type(executor).__name__} returned {len(results)} results "
            f"for {len(jobs)} jobs"
        )
    cells = iter(results)
    return [
        {label: [next(cells) for _ in seeds] for label in value_configs}
        for value_configs in configs
    ]


def run_seeds(
    config: ExperimentConfig,
    seeds: _t.Sequence[int],
    executor: GridExecutor = SERIAL,
) -> _t.List[RunResult]:
    """Run one experiment under several seeds (paper: 6), in seed order."""
    return run_grid([{config.strategy: config}], seeds, executor)[0][config.strategy]
