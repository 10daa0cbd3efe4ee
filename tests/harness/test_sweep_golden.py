"""Golden-file regression test for ``SweepResult.to_dict()``.

A tiny fixed-seed load sweep must serialize exactly to the checked-in
fixture, so result-merging refactors (including the worker fan-out)
cannot silently reorder points, renumber seeds, or drift percentiles.

To regenerate the fixture after an *intentional* change to result
semantics, run::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/harness/test_sweep_golden.py

and commit the diff with an explanation of why the numbers moved.
"""

import json
import os
from pathlib import Path

from repro.harness import ExperimentConfig, sweep

FIXTURE = Path(__file__).parent / "fixtures" / "sweep_golden.json"

GOLDEN_KWARGS = dict(
    parameter="load",
    values=[0.4, 0.7],
    strategies=("oblivious-random", "oblivious-lor"),
    seeds=(1, 2),
)


def _golden_sweep(**extra):
    return sweep(
        ExperimentConfig(n_tasks=150, n_keys=1000), **GOLDEN_KWARGS, **extra
    )


def test_sweep_to_dict_matches_golden_fixture():
    result = _golden_sweep()
    produced = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":  # pragma: no cover
        FIXTURE.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert produced == expected, (
        "SweepResult.to_dict() drifted from the golden fixture; if the "
        "change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_parallel_sweep_matches_golden_fixture():
    """The fixture also pins the parallel merge path, end to end."""
    result = _golden_sweep(jobs=2)
    produced = json.loads(result.canonical_json())
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert produced == expected


def test_fixture_shape_sanity():
    """Guard the fixture itself against accidental truncation."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert data["parameter"] == "load"
    assert data["values"] == [0.4, 0.7]
    assert set(data["points"]) == {"0.4", "0.7"}
    for point in data["points"].values():
        assert point["seeds"] == [1, 2]
        assert set(point["strategies"]) == {"oblivious-random", "oblivious-lor"}
        for strat in point["strategies"].values():
            assert len(strat["per_seed_p99_ms"]) == 2
            assert strat["count"] > 0
