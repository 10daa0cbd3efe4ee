"""Differential tests: one worker and N workers must be byte-identical.

The core determinism guarantee of the run grid is that fanning a
(value x strategy x seed) grid over worker processes is *invisible* in the
numbers: every aggregate (``SweepResult``, ``ComparisonResult``) serializes
to exactly the same JSON as the one-worker run.  Both are the same
``run_grid`` with a different worker count; these tests pin the guarantee
over several scenarios, strategies and seeds, for the sweep entry point,
``run_seeds`` and ``figure2``.

The worker count is 2 by default; CI also runs the suite with
``REPRO_TEST_JOBS=2`` explicitly, and the knob lets developers stress
higher fan-out locally (e.g. ``REPRO_TEST_JOBS=8``).
"""

import json
import os

import pytest

from repro.harness import compare_strategies, figure2, run_seeds, sweep
from repro.scenarios import get_scenario

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))

#: (scenario, swept parameter, values) -- mixed fault scripts on purpose:
#: a clean run, a scripted slowdown, and a skew scenario swept on skew.
SCENARIO_GRID = [
    ("steady-state", "load", [0.5]),
    ("straggler", "load", [0.5, 0.8]),
    ("hotspot-skew", "zipf_skew", [0.9, 1.1]),
]

STRATEGIES = ("oblivious-lor", "unifincr-credits")
SEEDS = (1, 2)
N_TASKS = 220


@pytest.mark.parametrize(
    "scenario,parameter,values",
    SCENARIO_GRID,
    ids=[s for s, _, _ in SCENARIO_GRID],
)
def test_sweep_serial_equals_parallel(scenario, parameter, values):
    kwargs = dict(
        parameter=parameter,
        values=values,
        strategies=STRATEGIES,
        seeds=SEEDS,
        n_tasks=N_TASKS,
    )
    serial = sweep(scenario, **kwargs)
    parallel = sweep(scenario, jobs=JOBS, **kwargs)
    assert serial.canonical_json() == parallel.canonical_json()


def test_sweep_serial_executor_equals_plain_loop():
    """The default worker count is one worker, nothing else."""
    kwargs = dict(
        parameter="load",
        values=[0.5, 0.8],
        strategies=STRATEGIES,
        seeds=SEEDS,
        n_tasks=N_TASKS,
    )
    assert (
        sweep("straggler", **kwargs).canonical_json()
        == sweep("straggler", jobs=1, **kwargs).canonical_json()
    )


def test_sweep_all_cores_equals_serial():
    """``jobs=0`` (all cores) is one more worker count, nothing else."""
    kwargs = dict(
        parameter="load",
        values=[0.5],
        strategies=STRATEGIES,
        seeds=SEEDS,
        n_tasks=N_TASKS,
    )
    assert (
        sweep("straggler", **kwargs).canonical_json()
        == sweep("straggler", jobs=0, **kwargs).canonical_json()
    )


def test_rerun_is_byte_identical():
    """Nothing is stored between runs: a rerun recomputes every cell and
    must reproduce the first run byte for byte."""
    kwargs = dict(
        parameter="load",
        values=[0.5],
        strategies=STRATEGIES,
        seeds=SEEDS,
        n_tasks=N_TASKS,
    )
    first = sweep("hot-shard", jobs=JOBS, **kwargs)
    second = sweep("hot-shard", jobs=JOBS, **kwargs)
    assert first.canonical_json() == second.canonical_json()


def test_sweep_with_duplicate_values_serial_equals_parallel():
    """Repeated swept values are distinct grid cells in both modes."""
    kwargs = dict(
        parameter="load",
        values=[0.5, 0.5, 0.8],
        strategies=("oblivious-lor",),
        seeds=(1,),
        n_tasks=120,
    )
    serial = sweep("steady-state", **kwargs)
    parallel = sweep("steady-state", jobs=JOBS, **kwargs)
    assert serial.canonical_json() == parallel.canonical_json()
    assert serial.values == (0.5, 0.5, 0.8)


def test_run_seeds_serial_equals_parallel():
    config = get_scenario("flash-crowd").build_config(
        strategy="oblivious-lor", n_tasks=N_TASKS
    )
    seeds = (1, 2, 3)
    serial = run_seeds(config, seeds)
    parallel = run_seeds(config, seeds, jobs=JOBS)
    a = compare_strategies({config.strategy: serial})
    b = compare_strategies({config.strategy: parallel})
    assert a.canonical_json() == b.canonical_json()
    # Beyond the aggregate: every raw latency list matches exactly.
    for s, p in zip(serial, parallel):
        assert s.task_latencies.values() == p.task_latencies.values()
        assert s.events_processed == p.events_processed
        assert s.extras == p.extras


def test_figure2_serial_equals_parallel():
    serial = figure2(n_tasks=N_TASKS, seeds=(1,), strategies=STRATEGIES)
    parallel = figure2(
        n_tasks=N_TASKS,
        seeds=(1,),
        strategies=STRATEGIES,
        jobs=JOBS,
    )
    assert serial.canonical_json() == parallel.canonical_json()


def test_canonical_json_roundtrips():
    """canonical_json is genuinely JSON (the byte-comparison is meaningful)."""
    result = sweep(
        "steady-state",
        parameter="load",
        values=[0.5],
        strategies=("oblivious-lor",),
        seeds=(1,),
        n_tasks=100,
    )
    assert json.loads(result.canonical_json()) == json.loads(
        json.dumps(result.to_dict(), sort_keys=True)
    )
