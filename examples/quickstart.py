#!/usr/bin/env python3
"""Quickstart: run one small BRB experiment and print the percentiles.

Usage::

    python examples/quickstart.py [strategy] [n_tasks]

Strategies: c3, equalmax-credits, unifincr-credits, equalmax-model,
unifincr-model, oblivious-lor, ... -- ``repro.harness.KNOWN_STRATEGIES``
names the builder table; ``python -m repro strategies`` lists them with
descriptions.  For named workloads with fault scripts see
``python -m repro scenarios`` and ``examples/scenario_tour.py``.
"""

import sys

from repro.harness import ExperimentConfig, KNOWN_STRATEGIES, run_experiment


def main() -> None:
    strategy = sys.argv[1] if len(sys.argv) > 1 else "unifincr-credits"
    n_tasks = int(sys.argv[2]) if len(sys.argv) > 2 else 5000
    if strategy not in KNOWN_STRATEGIES:
        raise SystemExit(
            f"unknown strategy {strategy!r}; pick one of {', '.join(KNOWN_STRATEGIES)}"
        )

    config = ExperimentConfig(strategy=strategy, n_tasks=n_tasks)
    print(f"running: {config.describe()}")
    result = run_experiment(config, seed=1)

    summary = result.summary((50.0, 90.0, 95.0, 99.0, 99.9))
    print()
    print(summary)
    print()
    print(f"simulated {result.sim_duration:.2f}s of virtual time")
    print(f"kernel processed {result.events_processed:,} events")
    print(f"backend served {result.requests_served:,} requests")
    print(f"mean server utilization {result.extras['mean_server_utilization']:.1%}")
    for key in ("congestion_signals", "gated_requests", "credit_grants"):
        if key in result.extras:
            print(f"{key.replace('_', ' ')}: {result.extras[key]:.0f}")


if __name__ == "__main__":
    main()
