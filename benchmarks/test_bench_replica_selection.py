"""Ablation E: replica selection policies under task-oblivious FIFO.

Reconstructs the landscape BRB improves upon: random / round-robin /
least-outstanding / C3 (with and without rate control), all with FIFO
servers.  C3's ranking should beat random and round-robin at the tail --
this is the C3 paper's own claim, and it sanity-checks our baseline before
Figure 2 leans on it.
"""

from conftest import bench_executor, bench_scale, save_report

from repro.analysis import render_table
from repro.harness import ExperimentConfig, compare_strategies, run_grid

STRATEGIES = ("oblivious-random", "oblivious-rr", "oblivious-lor", "c3-norate", "c3")


def run_ablation(n_tasks, seeds):
    cfg = ExperimentConfig(n_tasks=n_tasks)
    grid = [{name: cfg.with_strategy(name) for name in STRATEGIES}]
    comparison = compare_strategies(run_grid(grid, seeds, bench_executor())[0])
    rows = []
    for name in STRATEGIES:
        s = comparison.summary_of(name)
        rows.append(
            {
                "selector": name,
                "p50 (ms)": s.median * 1e3,
                "p95 (ms)": s.percentile(95.0) * 1e3,
                "p99 (ms)": s.p99 * 1e3,
            }
        )
    return rows, comparison.to_dict()


def test_replica_selection(once):
    n_tasks, seeds = bench_scale()
    rows, raw = once(run_ablation, max(3000, n_tasks // 2), seeds[:1])

    report = render_table(
        rows, title="Ablation E -- replica selection under FIFO servers"
    )
    print("\n" + report)
    save_report("ablation_replica_selection", report, data=raw)

    by_name = {row["selector"]: row for row in rows}
    # Load-aware selection (LOR, C3) beats load-blind (random) at the tail.
    assert by_name["oblivious-lor"]["p99 (ms)"] < by_name["oblivious-random"]["p99 (ms)"]
    assert by_name["c3-norate"]["p99 (ms)"] < by_name["oblivious-random"]["p99 (ms)"] * 1.05
