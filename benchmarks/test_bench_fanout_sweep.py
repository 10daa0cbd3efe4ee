"""Ablation B: task-awareness benefit vs fan-out.

Task-aware scheduling exists *because* of fan-out: with fan-out ~1 a task
is its own bottleneck and BRB degenerates to size-aware SJF; the benefit
should appear and persist as fan-out grows (the paper's motivation:
"tens to thousands of data accesses").
"""

from conftest import bench_jobs, bench_scale, save_report

from repro.analysis import render_table
from repro.harness import ExperimentConfig, sweep

FANOUTS = (1.5, 4.0, 8.6, 16.0)
STRATEGIES = ("c3", "unifincr-credits")


def run_sweep(n_tasks, seeds):
    result = sweep(
        ExperimentConfig(n_tasks=n_tasks),
        parameter="mean_fanout",
        values=FANOUTS,
        strategies=STRATEGIES,
        seeds=seeds,
        jobs=bench_jobs(),
    )
    rows = []
    raw = {}
    for fanout in FANOUTS:
        comparison = result.comparisons[fanout]
        raw[str(fanout)] = comparison.to_dict()
        speedup = comparison.speedup("c3", "unifincr-credits")
        rows.append(
            {
                "mean fan-out": fanout,
                "c3 p50 (ms)": comparison.summary_of("c3").median * 1e3,
                "brb p50 (ms)": comparison.summary_of("unifincr-credits").median * 1e3,
                "C3/BRB @p50": speedup[50.0],
                "C3/BRB @p99": speedup[99.0],
            }
        )
    return rows, raw


def test_fanout_sweep():
    n_tasks, seeds = bench_scale()
    rows, raw = run_sweep(max(2000, n_tasks // 3), seeds[:1])

    report = render_table(rows, title="Ablation B -- fan-out sweep")
    print("\n" + report)
    save_report("ablation_fanout_sweep", report, data=raw)

    # BRB wins the median at the paper's fan-out and above.
    by_fanout = {row["mean fan-out"]: row for row in rows}
    assert by_fanout[8.6]["C3/BRB @p50"] > 1.0
    assert by_fanout[16.0]["C3/BRB @p50"] > 1.0
