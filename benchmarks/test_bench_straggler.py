"""Ablation F: a degraded replica (straggler) and how each system absorbs it.

One of the nine servers runs 4x slower in recurring windows (GC pauses /
compaction).  Three mitigation philosophies meet the same fault:

* **C3** re-ranks replicas away from the slow server (feedback-driven);
* **hedged** duplicates late requests to another replica (reactive);
* **BRB (UnifIncr-credits)** spreads by outstanding bytes and lets
  priorities protect short tasks queued behind straggler-inflated work;
* **oblivious-random** is the no-defence floor.

Paper connection: BRB "complements" mitigation approaches (i)-(iii) of its
Section 1; this bench quantifies the complement on a concrete straggler.

The fault shape is the registered ``straggler`` scenario (one server 4x
slower in recurring windows), so the bench, the CLI and ad-hoc scripts all
measure the same thing.
"""

from conftest import bench_jobs, bench_scale, save_report

from repro.analysis import render_table, slo_attainment
from repro.harness import run_grid
from repro.scenarios import get_scenario

STRATEGIES = ("oblivious-random", "c3", "hedged", "unifincr-credits")


def run_ablation(n_tasks, seed):
    rows = []
    raw = {}
    scenario = get_scenario("straggler")
    configs = {
        strategy: scenario.build_config(strategy=strategy, n_tasks=n_tasks)
        for strategy in STRATEGIES
    }
    for strategy, (result,) in run_grid([configs], (seed,), bench_jobs())[0].items():
        summary = result.summary((50.0, 95.0, 99.0))
        values = result.task_latencies.values()
        rows.append(
            {
                "strategy": strategy,
                "p50 (ms)": summary.median * 1e3,
                "p99 (ms)": summary.p99 * 1e3,
                "SLO<=5ms": slo_attainment(values, 5e-3),
                "windows": result.extras.get("slowdown_windows", 0.0),
                "hedges": result.extras.get("hedges_sent", 0.0),
            }
        )
        raw[strategy] = {
            "p50_ms": summary.median * 1e3,
            "p99_ms": summary.p99 * 1e3,
            "slo_5ms": slo_attainment(values, 5e-3),
        }
    return rows, raw


def test_straggler():
    n_tasks, seeds = bench_scale()
    rows, raw = run_ablation(max(4000, n_tasks // 2), seeds[0])

    report = render_table(
        rows, title="Ablation F -- one replica 4x slow (recurring windows)"
    )
    print("\n" + report)
    save_report("ablation_straggler", report, data=raw)

    by_name = {row["strategy"]: row for row in rows}
    assert all(row["windows"] >= 1 for row in rows), "fault never fired"
    # Every defence beats the no-defence floor at the tail.
    floor = by_name["oblivious-random"]["p99 (ms)"]
    for strategy in ("c3", "hedged", "unifincr-credits"):
        assert by_name[strategy]["p99 (ms)"] < floor, strategy
    # BRB keeps the best median under the fault.
    assert by_name["unifincr-credits"]["p50 (ms)"] == min(
        row["p50 (ms)"] for row in rows
    )
