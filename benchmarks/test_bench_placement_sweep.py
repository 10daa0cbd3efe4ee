"""Placement sweep: replication factor x shard count vs tail latency.

The placement layer's headline question: how much tail headroom does
replica routing freedom buy?  RF=1 pins every key to one server (no
selection at all -- load imbalance lands where it lands); RF=N is the
degenerate full-replication ring where any server is eligible for any
key (the pre-placement model); production sits between.  The shard count
sweeps the granularity the vnode ring can spread hotspots with.

Run under a skewed workload (hot-shard scenario shape) so placement
actually matters; steady-state's hash-uniform popularity barely
distinguishes RF values.  Writes ``results/placement_sweep.{txt,json}``.
"""

from conftest import bench_jobs, bench_scale, save_report

from repro.analysis import render_table
from repro.harness import ExperimentConfig, compare_strategies, run_grid
from repro.cluster.topology import ClusterSpec

STRATEGIES = ("c3", "unifincr-credits")
REPLICATION_FACTORS = (1, 3, 9)
SHARD_COUNTS = (9, 36, 72)


def _cell_config(n_tasks, rf, shards):
    return ExperimentConfig(
        n_tasks=n_tasks,
        n_keys=20_000,
        zipf_skew=1.1,
        load=0.65,
        cluster=ClusterSpec(
            replication_factor=rf,
            placement_kind="chash",
            n_partitions=shards,
        ),
    )


def run_sweep(n_tasks, seeds):
    cells = [(rf, shards) for rf in REPLICATION_FACTORS for shards in SHARD_COUNTS]
    # Every (rf, shards) cell is one "value" of the same grid, so
    # REPRO_BENCH_JOBS workers span the whole sweep, not one cell.
    grid = [
        {
            name: _cell_config(n_tasks, rf, shards).with_strategy(name)
            for name in STRATEGIES
        }
        for rf, shards in cells
    ]
    rows = []
    raw = {}
    for (rf, shards), runs in zip(cells, run_grid(grid, seeds, bench_jobs())):
        comparison = compare_strategies(runs)
        raw[f"rf{rf}-shards{shards}"] = comparison.to_dict()
        row = {"rf": rf, "shards": shards}
        for name in STRATEGIES:
            summary = comparison.summary_of(name)
            row[f"{name} p50 (ms)"] = summary.median * 1e3
            row[f"{name} p99 (ms)"] = summary.p99 * 1e3
        rows.append(row)
    # Delta columns against the paper's default cell (RF=3).
    base = {
        (row["shards"], name): row[f"{name} p99 (ms)"]
        for row in rows
        if row["rf"] == 3
        for name in STRATEGIES
    }
    for row in rows:
        for name in STRATEGIES:
            row[f"{name} d-p99 (ms)"] = (
                row[f"{name} p99 (ms)"] - base[(row["shards"], name)]
            )
    return rows, raw


def test_placement_sweep():
    n_tasks, seeds = bench_scale()
    rows, raw = run_sweep(max(2500, n_tasks // 4), seeds[:1])

    report = render_table(
        rows,
        title="Placement sweep -- replication factor x shard count "
        "(skewed workload, p99 deltas vs RF=3)",
        float_fmt=".2f",
    )
    print("\n" + report)
    save_report("placement_sweep", report, data=raw)

    by_cell = {(row["rf"], row["shards"]): row for row in rows}
    for row in rows:
        for name in STRATEGIES:
            assert row[f"{name} p99 (ms)"] > 0
    # Routing freedom helps the tail under skew: for the credits strategy,
    # the best replicated cell beats the unreplicated one per shard count.
    for shards in SHARD_COUNTS:
        replicated = min(
            by_cell[(rf, shards)]["unifincr-credits p99 (ms)"]
            for rf in REPLICATION_FACTORS
            if rf > 1
        )
        pinned = by_cell[(1, shards)]["unifincr-credits p99 (ms)"]
        assert replicated < pinned * 1.05, (
            f"replication gave no tail benefit at {shards} shards: "
            f"best replicated {replicated:.2f}ms vs RF=1 {pinned:.2f}ms"
        )
