"""Shared benchmark configuration.

Scale control
-------------
Benchmarks default to a scaled-down task count so the whole suite runs in
minutes on a laptop.  Two environment variables widen the scope:

* ``REPRO_FULL_SCALE=1`` -- the paper's full setup (500k tasks, 6 seeds).
  Figure 2 there is ~50 CPU-minutes, extrapolated from a 100k-task,
  1-seed run (101 CPU-s on a 2-vCPU Xeon VM).
* ``REPRO_BENCH_TASKS=<n>`` / ``REPRO_BENCH_SEEDS=<k>`` -- override the
  scaled defaults directly.

Every benchmark renders a report and raw JSON through
:func:`save_report`.  By default they land in pytest's temporary directory,
so running the suite (it is part of the tier-1 command) leaves the
working tree clean; ``--record`` writes them into ``results/`` at the
repository root, which is where docs/results.md points and what CI's
artifact uploads read.
"""

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Where :func:`save_report` writes; set per session by ``_report_dir``.
_report_dir = RESULTS_DIR


def pytest_addoption(parser):
    parser.addoption(
        "--record",
        action="store_true",
        help="write benchmark reports into results/ (default: pytest's tmp dir)",
    )


@pytest.fixture(scope="session", autouse=True)
def _report_dir_for_session(request, tmp_path_factory):
    global _report_dir
    if not request.config.getoption("--record"):
        _report_dir = tmp_path_factory.mktemp("results")

#: Scaled defaults (paper: 500_000 tasks, 6 seeds).
DEFAULT_TASKS = 12_000
DEFAULT_SEEDS = (1, 2, 3)


def bench_scale():
    """(n_tasks, seeds) for the current invocation."""
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return 500_000, (1, 2, 3, 4, 5, 6)
    n_tasks = int(os.environ.get("REPRO_BENCH_TASKS", DEFAULT_TASKS))
    n_seeds = int(os.environ.get("REPRO_BENCH_SEEDS", len(DEFAULT_SEEDS)))
    return n_tasks, tuple(range(1, n_seeds + 1))


def bench_jobs() -> int:
    """Worker count from ``REPRO_BENCH_JOBS`` (one worker by default).

    ``REPRO_BENCH_JOBS=N`` fans each benchmark's run grid over N worker
    processes (0 = all cores); it is the same ``run_grid`` either way
    (see ``repro.harness.parallel``), so the assertions are unaffected.
    """
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def save_report(name: str, text: str, data=None) -> None:
    """Persist a rendered report (and optional JSON); see ``--record``."""
    _report_dir.mkdir(exist_ok=True)
    (_report_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    if data is not None:
        (_report_dir / f"{name}.json").write_text(
            json.dumps(data, indent=2), encoding="utf-8"
        )
