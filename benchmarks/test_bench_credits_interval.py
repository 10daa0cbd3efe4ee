"""Ablation D: sensitivity to the credits adaptation/measurement intervals.

The paper fixes adaptation at 1 s and leaves the measurement interval
unspecified.  This ablation sweeps the measurement (grant) cadence and
shows the realization is robust once reports are much faster than the
1 s congestion adaptation -- and degrades when they are not.
"""

from conftest import bench_scale, save_report

from repro.analysis import render_table
from repro.harness import ExperimentConfig, run_seeds
from repro.harness.results import compare_strategies

INTERVALS = (0.025, 0.05, 0.1, 0.25)


def run_sweep(n_tasks, seeds):
    rows = []
    raw = {}
    for interval in INTERVALS:
        cfg = ExperimentConfig(
            n_tasks=n_tasks,
            strategy="equalmax-credits",
            credits_measurement_interval=interval,
        )
        comparison = compare_strategies(
            {"equalmax-credits": run_seeds(cfg, seeds)}
        )
        raw[str(interval)] = comparison.to_dict()
        s = comparison.summary_of("equalmax-credits")
        runs = comparison.strategies["equalmax-credits"].runs
        rows.append(
            {
                "measurement interval (s)": interval,
                "p50 (ms)": s.median * 1e3,
                "p99 (ms)": s.p99 * 1e3,
                "gated requests": sum(r.extras["gated_requests"] for r in runs),
            }
        )
    return rows, raw


def test_credits_interval():
    n_tasks, seeds = bench_scale()
    rows, raw = run_sweep(max(3000, n_tasks // 2), seeds[:1])

    report = render_table(
        rows, title="Ablation D -- credits measurement-interval sweep"
    )
    print("\n" + report)
    save_report("ablation_credits_interval", report, data=raw)

    # Medians are insensitive to the cadence (top-ups mask staleness).
    p50s = [row["p50 (ms)"] for row in rows]
    assert max(p50s) / min(p50s) < 1.3
    # All runs completed (the table itself is the evidence); p99 at the
    # fastest cadence is no worse than at the slowest by more than 2x.
    assert rows[0]["p99 (ms)"] < rows[-1]["p99 (ms)"] * 2.0
