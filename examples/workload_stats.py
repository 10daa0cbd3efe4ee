#!/usr/bin/env python3
"""Generate the paper's workload and print its distribution statistics.

The SoundCloud-like generator is deterministic given a seed, so a trace
is reproduced by regenerating it rather than by saving it.  This example
draws one and prints statistics that should match the paper's disclosed
workload properties (mean fan-out 8.6, Pareto sizes).

Usage::

    python examples/workload_stats.py [n_tasks]
"""

import sys

from repro.analysis import cdf_sketch, render_table
from repro.metrics import ExactSample
from repro.workload import make_soundcloud_workload, trace_stats


def main() -> None:
    n_tasks = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    trace = make_soundcloud_workload(n_tasks=n_tasks).generate(seed=42)

    print(render_table(
        [{"metric": k, "value": v} for k, v in trace_stats(trace).items()],
        title="trace statistics (paper: mean fan-out 8.6)",
    ))
    print()

    fanouts = ExactSample()
    fanouts.record_many(float(t.fanout) for t in trace)
    points = [
        (fanouts.quantile(q), q)
        for q in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    ]
    print(cdf_sketch(points, title="fan-out CDF (log x)"))
    print()

    sizes = ExactSample()
    sizes.record_many(
        float(op.value_size) for t in trace for op in t.operations
    )
    print(
        f"value sizes: p50={sizes.quantile(0.5):.0f}B "
        f"p99={sizes.quantile(0.99):.0f}B max={sizes.max:.0f}B "
        f"(generalized-Pareto, Atikoglu et al.)"
    )


if __name__ == "__main__":
    main()
