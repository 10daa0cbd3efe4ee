"""Engine-vs-engine byte-equality: fixed seeds, golden ``RunResult`` dicts.

The fixture is the differential half of every engine change's
determinism promise.  Its six push-server cells (3 scenarios x 2
strategies) were captured with the *pre-overhaul* engine (PR 4 state);
the two ``*-model`` cells were captured with the process-per-core engine
just before the callback-driven servers replaced it, so the
``PullServer`` rewrite had digests to answer to.

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

GRID = [
    ("steady-state", "c3"),
    ("steady-state", "unifincr-credits"),
    ("straggler", "c3"),
    ("straggler", "unifincr-credits"),
    ("hotspot-skew", "c3"),
    ("hotspot-skew", "unifincr-credits"),
    ("steady-state", "unifincr-model"),
    ("hot-shard", "equalmax-model"),
]
N_TASKS = 400
SEED = 1


def _run_cell(scenario, strategy):
    config = get_scenario(scenario).build_config(strategy=strategy, n_tasks=N_TASKS)
    return run_experiment(config, seed=SEED).to_dict()


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        data = {
            f"{scenario}/{strategy}/seed{SEED}": _run_cell(scenario, strategy)
            for scenario, strategy in GRID
        }
        FIXTURE.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


_CELLS = pytest.mark.parametrize(
    "scenario,strategy", GRID, ids=[f"{s}-{st}" for s, st in GRID]
)


@pytest.fixture(scope="module")
def produced():
    """Each grid cell run once, shared by the two contracts below."""
    cache = {}

    def run(scenario, strategy):
        if (scenario, strategy) not in cache:
            cache[scenario, strategy] = json.loads(
                json.dumps(_run_cell(scenario, strategy), sort_keys=True)
            )
        return cache[scenario, strategy]

    return run


@_CELLS
def test_schedule_matches_golden(golden, produced, scenario, strategy):
    """Everything simulated time decides: latencies, counts, audit extras."""
    got = dict(produced(scenario, strategy))
    expected = dict(golden[f"{scenario}/{strategy}/seed{SEED}"])
    del got["events_processed"], expected["events_processed"]
    assert got == expected, (
        f"{scenario}/{strategy}: the simulated schedule drifted (latency "
        "digest, completions or extras); if intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1 and justify the determinism break"
    )


@_CELLS
def test_event_count_matches_golden(golden, produced, scenario, strategy):
    """Calendar entries fired: moves when the engine changes, not the model."""
    expected = golden[f"{scenario}/{strategy}/seed{SEED}"]["events_processed"]
    assert produced(scenario, strategy)["events_processed"] == expected, (
        f"{scenario}/{strategy}: same schedule contract, different number of "
        "calendar entries; expected after an engine change (regenerate with "
        "REPRO_REGEN_GOLDEN=1 and show the fixture diff is events_processed "
        "lines only), a bug otherwise"
    )


def test_fixture_covers_grid_and_counts():
    """Guard the fixture against truncation or an empty regen."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(data) == len(GRID)
    for key, cell in data.items():
        assert cell["n_tasks"] == N_TASKS, key
        assert cell["tasks_completed"] == N_TASKS, key
        assert cell["events_processed"] > 0, key
        assert len(cell["task_latency_digest"]) == 64, key


def test_to_dict_is_deterministic_within_one_process():
    """Same (config, seed) twice in one process -> identical dicts."""
    scenario, strategy = GRID[0]
    assert _run_cell(scenario, strategy) == _run_cell(scenario, strategy)
