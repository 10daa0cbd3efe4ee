#!/usr/bin/env python3
"""Tour the scenario table: one strategy across every named scenario.

Every scenario in ``SCENARIOS`` -- the baseline and fault scenarios
(steady-state, straggler, recurring-gc, flash-crowd, hotspot-skew,
heterogeneous-cluster, network-jitter, crash-restart), the placement
pathologies (hot-shard, replica-lag, ring-rebalance, shard-skew; see
docs/scenarios.md) and the self-healing pairs -- is run with the same
strategy and seed, and the percentile shifts are tabulated.  Adding a
scenario to the table adds a row here with no other changes.

Usage::

    python examples/scenario_tour.py [strategy] [n_tasks]
"""

import sys

from repro.analysis import render_table
from repro.harness import run_experiment
from repro.scenarios import SCENARIOS

def main() -> None:
    strategy = sys.argv[1] if len(sys.argv) > 1 else "unifincr-credits"
    n_tasks = int(sys.argv[2]) if len(sys.argv) > 2 else 5000

    rows = []
    for name, spec in SCENARIOS.items():
        config = spec.build_config(strategy=strategy, n_tasks=n_tasks)
        result = run_experiment(config, seed=1)
        summary = result.summary((50.0, 95.0, 99.0))
        fault_windows = sum(
            v for k, v in result.extras.items() if k.endswith("_windows")
        )
        rows.append(
            {
                "scenario": name,
                "p50 (ms)": summary.percentile(50.0) * 1e3,
                "p95 (ms)": summary.percentile(95.0) * 1e3,
                "p99 (ms)": summary.percentile(99.0) * 1e3,
                "fault windows": fault_windows,
            }
        )

    print(render_table(rows, title=f"{strategy} across the scenario table"))


if __name__ == "__main__":
    main()
