#!/usr/bin/env python3
"""Where does the latency go?  Decompose request time for C3 vs BRB.

Every request's life splits into client wait (gating/pacing), network
(fixed), server queue wait (schedulable) and service time
(workload-determined).  BRB cannot make values smaller or the network
faster -- its entire win must come from *rearranging* waits.  The
decomposition shows how: the median queue wait collapses (short requests
stop waiting behind convoys) while the p99 *request* queue wait may even
grow -- BRB deliberately parks slack-rich requests -- yet the p99 *task*
latency plummets.  Scheduling moves waiting to where it is free.

The per-request segments come from the span tracer (``trace_sample``):
the run samples as many post-warmup tasks as the recorder's ring holds,
and reports ``trace_evicted`` if hash sampling overshot it.

Usage::

    python examples/latency_anatomy.py [n_tasks]
"""

import sys

from repro.analysis import render_table
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.config import WARMUP_FRACTION
from repro.metrics import ExactSample
from repro.trace import DEFAULT_RING


def main() -> None:
    n_tasks = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
    measured = n_tasks - int(WARMUP_FRACTION * n_tasks)
    sample = min(1.0, DEFAULT_RING / measured)
    rows = []
    for strategy in ("c3", "unifincr-credits", "unifincr-model"):
        cfg = ExperimentConfig(strategy=strategy, n_tasks=n_tasks, trace_sample=sample)
        result = run_experiment(cfg, seed=1)
        segments = {
            kind: ExactSample() for kind in ("credit_wait", "queue_wait", "service")
        }
        for trace in result.traces:
            for span in trace.spans:
                for kind, seconds in span.segments().items():
                    if kind in segments:
                        segments[kind].record(seconds)
        rows.append(
            {
                "strategy": strategy,
                "traced tasks": len(result.traces),
                "evicted": int(result.extras["trace_evicted"]),
                "client wait p99 (ms)": segments["credit_wait"].quantile(0.99) * 1e3,
                "queue wait p50 (ms)": segments["queue_wait"].quantile(0.5) * 1e3,
                "queue wait p99 (ms)": segments["queue_wait"].quantile(0.99) * 1e3,
                "service p50 (ms)": segments["service"].quantile(0.5) * 1e3,
                "service p99 (ms)": segments["service"].quantile(0.99) * 1e3,
                "task p99 (ms)": result.summary((99.0,)).p99 * 1e3,
            }
        )
        print(f"{strategy} done")

    print()
    title = f"Per-request latency anatomy (trace_sample={sample:.3g})"
    print(render_table(rows, title=title))
    print(
        "\nService times are identical across strategies (same workload, same\n"
        "servers). BRB cuts the median queue wait while *raising* the p99\n"
        "request queue wait -- slack-rich requests wait so critical ones\n"
        "don't -- and the task-level p99 improves by multiples."
    )


if __name__ == "__main__":
    main()
