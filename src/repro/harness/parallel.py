"""The run grid: every (value x strategy x seed) block, on any worker count.

Every simulation run is a pure function of ``(config, seed)`` -- the
kernel's virtual clock makes results independent of wall-clock scheduling
-- so the grids behind :func:`~repro.harness.sweep.sweep`,
:func:`~repro.harness.figures.figure2`, :func:`run_seeds` and the
benchmarks are embarrassingly parallel.  They all run through
:func:`run_grid`: it flattens ``[{label: config}, ...] x seeds`` into
cells, runs them in this process when it has one worker or one cell and
over a :class:`concurrent.futures.ProcessPoolExecutor` otherwise, and
regroups the results.  The strategy travels as a *name* inside the
config; worker processes re-resolve it through the builder table on
import, so nothing unpicklable (builders, environments, RNG streams)
ever crosses the process boundary.

Determinism argument (also in DESIGN.md): a run reads no global mutable
state but the process-wide memos of pure functions (the keyspace
permutation, the Zipf constants, the value-size mean, the key ->
partition memos, the value-size tables), whose entries are the same
whichever run fills them -- all randomness flows from
``StreamFactory(seed)`` keyed by stream *names*, and all time is virtual
-- so executing cells concurrently or in any order cannot change any
cell's result, and because one function
enumerates and regroups the grid for every worker count, aggregate
structures (``ComparisonResult``, ``SweepResult``) cannot depend on it.
"""

from __future__ import annotations

import concurrent.futures
import os
import typing as _t

from .config import ExperimentConfig
from .runner import RunResult, run_experiment


def run_grid(
    configs: _t.Sequence[_t.Mapping[str, ExperimentConfig]],
    seeds: _t.Sequence[int],
    jobs: int = 1,
) -> _t.List[_t.Dict[str, _t.List[RunResult]]]:
    """Run [{label: config}, ...] x seeds as one grid: the only way a
    (value x strategy x seed) block is run, whatever the worker count.

    ``configs`` is one label->config mapping per swept value, *as a
    sequence* so repeated values stay distinct cells.  Grid order is
    value-major, then config, then seed; the return value mirrors the
    input, one ``{label: [RunResult per seed]}`` per mapping, ready for
    :func:`~repro.harness.results.compare_strategies`.  ``jobs`` is the
    worker count (``0`` = the machine's core count); ``map`` hands results
    back in submission order, so every worker count sees the same list.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if jobs < 0:
        raise ValueError(f"need at least one worker, got {jobs}")
    cells = [
        (config, seed)
        for value_configs in configs
        for config in value_configs.values()
        for seed in seeds
    ]
    workers = min(jobs or os.cpu_count() or 1, len(cells))
    if workers <= 1:
        # Nothing to fan out; skip the pool (and its fork overhead).
        results = [run_experiment(config, seed) for config, seed in cells]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_experiment, *zip(*cells)))
    ordered = iter(results)
    return [
        {label: [next(ordered) for _ in seeds] for label in value_configs}
        for value_configs in configs
    ]


def run_seeds(
    config: ExperimentConfig,
    seeds: _t.Sequence[int],
    jobs: int = 1,
) -> _t.List[RunResult]:
    """Run one experiment under several seeds (paper: 6), in seed order."""
    return run_grid([{config.strategy: config}], seeds, jobs)[0][config.strategy]
