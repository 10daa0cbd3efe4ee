"""Ablation A: the Figure 2 ordering across system load.

Not a paper figure; establishes where the paper's headline factors live.
The BRB-over-C3 advantage grows with load (scheduling only matters when
queues form), while the credits/model gap widens too -- the trade the
realizable design makes.
"""

from conftest import bench_executor, bench_scale, save_report

from repro.analysis import render_table
from repro.harness import ExperimentConfig, sweep

LOADS = (0.4, 0.55, 0.7, 0.85)
STRATEGIES = ("c3", "equalmax-credits", "equalmax-model")


def run_sweep(n_tasks, seeds):
    result = sweep(
        ExperimentConfig(n_tasks=n_tasks),
        parameter="load",
        values=LOADS,
        strategies=STRATEGIES,
        seeds=seeds,
        executor=bench_executor(),
    )
    rows = []
    raw = {}
    for load in LOADS:
        comparison = result.comparisons[load]
        raw[str(load)] = comparison.to_dict()
        speedup = comparison.speedup("c3", "equalmax-credits")
        row = {"load": load}
        for name in STRATEGIES:
            row[f"{name} p99 (ms)"] = comparison.summary_of(name).p99 * 1e3
        row["C3/BRB @p50"] = speedup[50.0]
        row["C3/BRB @p99"] = speedup[99.0]
        rows.append(row)
    return rows, raw


def test_load_sweep(once):
    n_tasks, seeds = bench_scale()
    # The sweep multiplies runs by len(LOADS): use a third of the budget.
    rows, raw = once(run_sweep, max(2000, n_tasks // 3), seeds[:1])

    report = render_table(rows, title="Ablation A -- load sweep (p99 and C3/BRB factors)")
    print("\n" + report)
    save_report("ablation_load_sweep", report, data=raw)

    # The BRB advantage at the median must not shrink as load rises.
    medians = [row["C3/BRB @p50"] for row in rows]
    assert medians[-1] >= medians[0] * 0.9
    # BRB wins the median at every load.
    assert all(m > 1.0 for m in medians)
    # The model stays fastest at p99 everywhere.
    for row in rows:
        assert row["equalmax-model p99 (ms)"] <= row["equalmax-credits p99 (ms)"] * 1.05
