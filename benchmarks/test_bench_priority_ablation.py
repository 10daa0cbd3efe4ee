"""Ablation C: priority algorithms under the identical credits realization.

Separates BRB's two levers: the credits *machinery* (shared by every row)
from the task-aware *priorities* (the only thing that differs).  FIFO
priorities are the null hypothesis; SJF is size-aware-but-task-oblivious;
EDF, EqualMax and UnifIncr are task-aware.
"""

from conftest import bench_executor, bench_scale, save_report

from repro.analysis import render_table
from repro.harness import ExperimentConfig, compare_strategies, run_grid

STRATEGIES = (
    "fifo-credits",
    "sjf-credits",
    "edf-credits",
    "equalmax-credits",
    "unifincr-credits",
)


def run_ablation(n_tasks, seeds):
    cfg = ExperimentConfig(n_tasks=n_tasks)
    grid = [{name: cfg.with_strategy(name) for name in STRATEGIES}]
    comparison = compare_strategies(run_grid(grid, seeds, bench_executor())[0])
    rows = []
    for name in STRATEGIES:
        s = comparison.summary_of(name)
        rows.append(
            {
                "priorities": name.replace("-credits", ""),
                "p50 (ms)": s.median * 1e3,
                "p95 (ms)": s.percentile(95.0) * 1e3,
                "p99 (ms)": s.p99 * 1e3,
                "mean (ms)": s.mean * 1e3,
            }
        )
    return rows, comparison.to_dict()


def test_priority_ablation(once):
    n_tasks, seeds = bench_scale()
    rows, raw = once(run_ablation, max(3000, n_tasks // 2), seeds[:1])

    report = render_table(
        rows, title="Ablation C -- priority assignment under credits"
    )
    print("\n" + report)
    save_report("ablation_priorities", report, data=raw)

    by_name = {row["priorities"]: row for row in rows}
    # Task-aware assigners beat FIFO at the median.
    for algo in ("equalmax", "unifincr", "edf"):
        assert by_name[algo]["p50 (ms)"] < by_name["fifo"]["p50 (ms)"], algo
    # EqualMax/UnifIncr at least match plain per-request SJF at the median
    # (they add task context on top of size-awareness).
    for algo in ("equalmax", "unifincr"):
        assert by_name[algo]["p50 (ms)"] <= by_name["sjf"]["p50 (ms)"] * 1.10, algo
