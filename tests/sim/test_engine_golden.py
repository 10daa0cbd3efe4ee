"""Engine-vs-engine byte-equality: fixed seeds, golden ``RunResult`` dicts.

The fixture is the differential half of every engine change's
determinism promise.  Its six push-server cells (3 scenarios x 2
strategies) were captured with the *pre-overhaul* engine (PR 4 state);
the two ``*-model`` cells were captured with the process-per-core engine
just before the callback-driven servers replaced it, so the
``PullServer`` rewrite had digests to answer to.  The long cells were
captured with the generator-process engine just before its timers became
``call_later``/``call_every`` callbacks: 400 tasks end at ~0.04 s, before
the first credit allocation (0.1 s), fault window or remediation action,
so they run long enough for hedge timers, recurring windows (a second
onset), a flash crowd, congestion signals, credit grants and SLO
remediation to each have fired.

Two contracts, asserted separately so a failure says which one broke:

* **schedule** -- ``RunResult.to_dict()`` minus ``events_processed``:
  every task latency folded into a SHA-256 digest, the completion counts
  and all audit extras.  Only a change to the *model* may move it.
* **event count** -- ``events_processed``, the calendar entries fired.
  An engine that does the same simulated work on fewer entries moves
  this and nothing else (the callback-driven servers cut it by a third).

To regenerate after an *intentional* change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/sim/test_engine_golden.py

and explain in the commit why determinism moved, showing which lines of
the fixture changed (see ``docs/performance.md`` for what
"byte-identical" does and does not cover).
"""

import json
import os
from pathlib import Path

import pytest

from repro.harness.runner import run_experiment
from repro.scenarios import get_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "engine_golden.json"

N_TASKS = 400
#: Long enough (~0.6 s of model time) for every timer-driven activity.
N_TASKS_LONG = 6000
GRID = [
    ("steady-state", "c3", N_TASKS),
    ("steady-state", "unifincr-credits", N_TASKS),
    ("straggler", "c3", N_TASKS),
    ("straggler", "unifincr-credits", N_TASKS),
    ("hotspot-skew", "c3", N_TASKS),
    ("hotspot-skew", "unifincr-credits", N_TASKS),
    ("steady-state", "unifincr-model", N_TASKS),
    ("hot-shard", "equalmax-model", N_TASKS),
    ("steady-state", "hedged", 2000),
    ("recurring-gc", "unifincr-credits", N_TASKS_LONG),
    ("crash-restart", "unifincr-credits", N_TASKS_LONG),
    ("flash-crowd", "unifincr-credits", N_TASKS_LONG),
    ("network-jitter", "unifincr-credits", N_TASKS_LONG),
    ("ring-rebalance", "unifincr-credits", N_TASKS_LONG),
    ("hot-shard-remediated", "unifincr-credits", N_TASKS_LONG),
    ("crash-restart-remediated", "c3", N_TASKS_LONG),
    # Past C3's first reaction interval and rate window, which the 400-task
    # cell never reaches: the limiter's cuts and its pacing backlog run here.
    ("steady-state", "c3", N_TASKS_LONG),
]
SEED = 1


def _tag(scenario, strategy, n_tasks):
    """``scenario/strategy``, plus ``/n<length>`` for a pair pinned again
    at another length."""
    first = next(n for s, st, n in GRID if (s, st) == (scenario, strategy))
    tag = f"{scenario}/{strategy}"
    return tag if n_tasks == first else f"{tag}/n{n_tasks}"


def _key(scenario, strategy, n_tasks):
    return f"{_tag(scenario, strategy, n_tasks)}/seed{SEED}"


def _run_cell(scenario, strategy, n_tasks):
    config = get_scenario(scenario).build_config(strategy=strategy, n_tasks=n_tasks)
    return run_experiment(config, seed=SEED).to_dict()


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        data = {
            _key(scenario, strategy, n): _run_cell(scenario, strategy, n)
            for scenario, strategy, n in GRID
        }
        FIXTURE.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


_CELLS = pytest.mark.parametrize(
    "scenario,strategy,n_tasks",
    GRID,
    ids=[_tag(*cell).replace("/", "-") for cell in GRID],
)


@pytest.fixture(scope="module")
def produced():
    """Each grid cell run once, shared by the two contracts below."""
    cache = {}

    def run(scenario, strategy, n_tasks):
        key = _key(scenario, strategy, n_tasks)
        if key not in cache:
            cache[key] = json.loads(
                json.dumps(_run_cell(scenario, strategy, n_tasks), sort_keys=True)
            )
        return cache[key]

    return run


@_CELLS
def test_schedule_matches_golden(golden, produced, scenario, strategy, n_tasks):
    """Everything simulated time decides: latencies, counts, audit extras."""
    got = dict(produced(scenario, strategy, n_tasks))
    expected = dict(golden[_key(scenario, strategy, n_tasks)])
    del got["events_processed"], expected["events_processed"]
    assert got == expected, (
        f"{scenario}/{strategy}: the simulated schedule drifted (latency "
        "digest, completions or extras); if intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1 and justify the determinism break"
    )


@_CELLS
def test_event_count_matches_golden(golden, produced, scenario, strategy, n_tasks):
    """Calendar entries fired: moves when the engine changes, not the model."""
    expected = golden[_key(scenario, strategy, n_tasks)]["events_processed"]
    assert produced(scenario, strategy, n_tasks)["events_processed"] == expected, (
        f"{scenario}/{strategy}: same schedule contract, different number of "
        "calendar entries; expected after an engine change (regenerate with "
        "REPRO_REGEN_GOLDEN=1 and show the fixture diff is events_processed "
        "lines only), a bug otherwise"
    )


def test_fixture_covers_grid_and_counts():
    """Guard the fixture against truncation or an empty regen."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(data) == len(GRID)
    for scenario, strategy, n_tasks in GRID:
        key = _key(scenario, strategy, n_tasks)
        cell = data[key]
        assert cell["n_tasks"] == n_tasks, key
        assert cell["tasks_completed"] == n_tasks, key
        assert cell["events_processed"] > 0, key
        assert len(cell["task_latency_digest"]) == 64, key


def test_to_dict_is_deterministic_within_one_process():
    """Same (config, seed) twice in one process -> identical dicts."""
    assert _run_cell(*GRID[0]) == _run_cell(*GRID[0])
