#!/usr/bin/env python3
"""Reproduce Figure 2: C3 vs BRB (EqualMax/UnifIncr x credits/model).

Runs all five strategies over a common seed grid on the SoundCloud-like
workload (18 clients, 9x4-core servers at 3500 req/s, 70% load, mean
fan-out 8.6, Pareto value sizes) and prints the percentile matrix, an
ASCII rendition of the figure, and the paper's two headline ratios.

Usage::

    python examples/reproduce_figure2.py [--tasks N] [--seeds K] [--out FILE]
    python examples/reproduce_figure2.py --jobs 4      # fan runs over 4 cores
    python examples/reproduce_figure2.py --full        # paper scale (slow!)
"""

import argparse

from repro.analysis import grouped_bar_chart, percentile_matrix, ratio_table
from repro.harness import FIGURE2_STRATEGIES, GridExecutor, figure2, figure2_series
from repro.metrics import PAPER_PERCENTILES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=12_000,
                        help="tasks per run (paper: 500000)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of random seeds (paper: 6)")
    parser.add_argument("--full", action="store_true",
                        help="paper scale: 500k tasks x 6 seeds")
    parser.add_argument("--out", type=str, default=None,
                        help="write raw results as JSON to this path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="fan the strategy x seed grid over N worker "
                             "processes (0 = all cores); output is identical")
    args = parser.parse_args()

    n_tasks = 500_000 if args.full else args.tasks
    seeds = tuple(range(1, (6 if args.full else args.seeds) + 1))

    print(f"Figure 2 reproduction: {n_tasks} tasks x {len(seeds)} seeds")
    print(f"strategies: {', '.join(FIGURE2_STRATEGIES)}")
    print()

    comparison = figure2(
        n_tasks=n_tasks, seeds=seeds, executor=GridExecutor(jobs=args.jobs)
    )

    summaries = {n: comparison.summary_of(n) for n in FIGURE2_STRATEGIES}
    print(percentile_matrix(
        {n: s.percentiles for n, s in summaries.items()},
        percentiles=PAPER_PERCENTILES,
    ))
    print()
    print(grouped_bar_chart(figure2_series(comparison),
                            title="Figure 2 -- task read latency (ms)"))
    print()
    print(ratio_table(comparison.speedup("c3", "equalmax-credits"),
                      label="C3 / EqualMax-credits (paper: up to 3x/3x/2x)"))
    print()
    gap = comparison.gap_to_ideal("equalmax-credits", "equalmax-model")
    print(ratio_table({p: 1.0 + g for p, g in gap.items()},
                      label="EqualMax credits vs ideal (paper: <=1.38 @ p99)"))

    if args.out:
        comparison.save_json(args.out)
        print(f"\nraw results written to {args.out}")


if __name__ == "__main__":
    main()
