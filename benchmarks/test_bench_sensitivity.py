"""Ablations G & H: network latency and replication factor sensitivity.

* **G (network latency)**: the paper fixes 50 us one-way.  As the network
  delay grows it dominates end-to-end latency and scheduling gains shrink
  -- quantifies how datacenter-internal the technique is.
* **H (replication factor)**: R=1 removes replica choice entirely (pure
  scheduling gains); R=3 is the paper's setting; higher R adds placement
  freedom for both systems.
"""

from conftest import bench_jobs, bench_scale, save_report

from repro.analysis import render_table
from repro.cluster import ClusterSpec
from repro.harness import ExperimentConfig, run_grid

LATENCIES = (10e-6, 50e-6, 200e-6, 1e-3)
REPLICATION = (1, 2, 3, 5)


def sweep_clusters(clusters, n_tasks, seed):
    """(c3, equalmax-credits) summaries per cluster, one grid for the sweep."""
    grid = [
        {
            strategy: ExperimentConfig(
                strategy=strategy, n_tasks=n_tasks, cluster=cluster
            )
            for strategy in ("c3", "equalmax-credits")
        }
        for cluster in clusters
    ]
    for cell in run_grid(grid, (seed,), bench_jobs()):
        (c3,), (brb,) = cell["c3"], cell["equalmax-credits"]
        yield c3.summary((50.0, 99.0)), brb.summary((50.0, 99.0))


def run_latency_sweep(n_tasks, seed):
    clusters = [ClusterSpec(one_way_latency=latency) for latency in LATENCIES]
    return [
        {
            "one-way latency (us)": latency * 1e6,
            "c3 p50 (ms)": c3.median * 1e3,
            "brb p50 (ms)": brb.median * 1e3,
            "C3/BRB @p50": c3.median / brb.median,
            "C3/BRB @p99": c3.p99 / brb.p99,
        }
        for latency, (c3, brb) in zip(
            LATENCIES, sweep_clusters(clusters, n_tasks, seed)
        )
    ]


def run_replication_sweep(n_tasks, seed):
    clusters = [ClusterSpec(replication_factor=rf) for rf in REPLICATION]
    return [
        {
            "replication factor": rf,
            "c3 p99 (ms)": c3.p99 * 1e3,
            "brb p99 (ms)": brb.p99 * 1e3,
            "C3/BRB @p50": c3.median / brb.median,
        }
        for rf, (c3, brb) in zip(REPLICATION, sweep_clusters(clusters, n_tasks, seed))
    ]


def test_latency_sensitivity():
    n_tasks, seeds = bench_scale()
    rows = run_latency_sweep(max(2000, n_tasks // 4), seeds[0])
    report = render_table(rows, title="Ablation G -- one-way network latency sweep")
    print("\n" + report)
    save_report("ablation_latency", report, data=rows)

    # Gains shrink as the (unschedulable) network share grows.
    first, last = rows[0], rows[-1]
    assert last["C3/BRB @p50"] <= first["C3/BRB @p50"] * 1.1
    # BRB keeps winning the median at the paper's 50us point.
    assert rows[1]["C3/BRB @p50"] > 1.0


def test_replication_sensitivity():
    n_tasks, seeds = bench_scale()
    rows = run_replication_sweep(max(2000, n_tasks // 4), seeds[0])
    report = render_table(rows, title="Ablation H -- replication factor sweep")
    print("\n" + report)
    save_report("ablation_replication", report, data=rows)

    # BRB wins the median at every R, including R=1 where there is no
    # replica choice and only task-aware scheduling differs.
    assert all(row["C3/BRB @p50"] > 1.0 for row in rows)
