"""Micro-benchmark: the run grid on one worker vs four.

Times the same 16-cell (4 values x 2 strategies x 2 seeds) load sweep
three ways -- one worker, fanned over a 4-worker process pool, and re-run
against a warm on-disk result cache -- and verifies all three produce
byte-identical ``SweepResult.to_dict()`` output before reporting any
timing.  The parallel speedup scales with physical cores (~Nx on an
N >= 4 core machine for this CPU-bound grid); the warm-cache speedup is
hardware-independent.

Writes ``results/micro_sweep_parallel.txt`` / ``.json``.
"""

import os
import tempfile
import time

from conftest import save_report

from repro.harness import ExperimentConfig, GridExecutor, ResultCache, sweep
from repro.harness.parallel import SERIAL

WORKERS = 4
GRID_KWARGS = dict(
    parameter="load",
    values=[0.45, 0.6, 0.75, 0.9],
    strategies=("oblivious-random", "oblivious-lor"),
    seeds=(1, 2),
)


def _cells():
    return (
        len(GRID_KWARGS["values"])
        * len(GRID_KWARGS["strategies"])
        * len(GRID_KWARGS["seeds"])
    )


def _timed_sweep(base, executor=SERIAL):
    start = time.perf_counter()
    result = sweep(base, executor=executor, **GRID_KWARGS)
    return result, time.perf_counter() - start


def test_parallel_sweep_speedup():
    n_tasks = int(os.environ.get("REPRO_BENCH_TASKS", 2_000))
    base = ExperimentConfig(n_tasks=n_tasks, n_keys=5_000)
    cores = os.cpu_count() or 1

    serial, t_serial = _timed_sweep(base)
    parallel, t_parallel = _timed_sweep(base, GridExecutor(jobs=WORKERS))

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        _, t_cold_cache = _timed_sweep(base, GridExecutor(jobs=WORKERS, cache=cache))
        cached, t_warm_cache = _timed_sweep(base, GridExecutor(cache=cache))
        assert cache.hits == _cells()  # warm pass re-ran nothing

    # Timing is meaningless unless the outputs are interchangeable.
    assert serial.canonical_json() == parallel.canonical_json()
    assert serial.canonical_json() == cached.canonical_json()

    parallel_speedup = t_serial / t_parallel
    cache_speedup = t_serial / t_warm_cache

    lines = [
        "parallel sweep micro-benchmark",
        f"grid: {len(GRID_KWARGS['values'])} values x "
        f"{len(GRID_KWARGS['strategies'])} strategies x "
        f"{len(GRID_KWARGS['seeds'])} seeds = {_cells()} cells, "
        f"{n_tasks} tasks/cell",
        f"machine: {cores} cores; pool workers: {WORKERS}",
        "",
        f"serial sweep:            {t_serial:8.2f} s",
        f"process pool (x{WORKERS}):       {t_parallel:8.2f} s   "
        f"speedup {parallel_speedup:5.2f}x",
        f"cold run filling cache:  {t_cold_cache:8.2f} s",
        f"warm-cache re-sweep:     {t_warm_cache:8.2f} s   "
        f"speedup {cache_speedup:5.2f}x",
        "",
        "serial, parallel and cached to_dict() outputs: byte-identical",
        f"(pool speedup tracks physical cores: expect ~{min(WORKERS, cores)}x "
        f"here, ~{WORKERS}x on a >= {WORKERS}-core machine)",
    ]
    report = "\n".join(lines)
    print("\n" + report)
    save_report(
        "micro_sweep_parallel",
        report,
        data={
            "cells": _cells(),
            "n_tasks_per_cell": n_tasks,
            "cores": cores,
            "workers": WORKERS,
            "serial_s": t_serial,
            "parallel_s": t_parallel,
            "cold_cache_s": t_cold_cache,
            "warm_cache_s": t_warm_cache,
            "parallel_speedup": parallel_speedup,
            "cache_speedup": cache_speedup,
            "outputs_identical": True,
        },
    )
    # The cache's repeated-sweep speedup is hardware-independent; the pool
    # speedup approaches the worker count only with >= WORKERS free cores,
    # so it is recorded but not asserted.
    assert cache_speedup >= 2.0
