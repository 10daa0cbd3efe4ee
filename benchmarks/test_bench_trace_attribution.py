"""The hot-shard attribution story, committed as a results artifact.

Runs the hot-shard scenario under full trace sampling for the paper's
headline pair and writes ``results/trace_attribution.{json,txt}``: where
each strategy's p99 critical path actually goes.

The story the artifact pins down (and this benchmark asserts):

* **unifincr-credits** queues on the hot shard — ``queue_wait`` dominates
  its p99 attribution, and nearly all of that queueing sits on
  partition 0 (the scenario's hot replica group).
* **c3** keeps the hot shard's server queues near empty (cubic rate
  limiter + queue-aware replica ranking) and pays its tail client-side
  instead: ``credit_wait`` (the pacing gate) dominates, with queue-wait
  share near zero.

That contrast is exactly what the tracing subsystem exists to surface:
"p99 is high" becomes "p99 is queue-bound *on the hot shard*" for one
strategy and "p99 is rate-limiter-bound at the client" for the other.
"""

from conftest import bench_jobs, save_report

from repro.harness import run_grid
from repro.scenarios import get_scenario
from repro.trace import (
    RunTraces,
    attribution,
    diff_attributions,
    render_attribution,
    render_diff,
)

N_TASKS = 4000
SEEDS = (1, 2)
TAIL = 99.0


def collect(strategies):
    """Full-sample hot-shard traces per strategy, seeds merged."""
    configs = {
        strategy: get_scenario("hot-shard").build_config(
            strategy=strategy, n_tasks=N_TASKS, trace_sample=1.0
        )
        for strategy in strategies
    }
    return {
        strategy: RunTraces(
            strategy=strategy, scenario="hot-shard", realm="sim", sample=1.0,
            seeds=list(SEEDS), n_tasks=N_TASKS * len(SEEDS),
            traces=[trace for result in runs for trace in result.traces],
        )
        for strategy, runs in run_grid([configs], SEEDS, bench_jobs())[0].items()
    }


def test_trace_attribution_artifact():
    groups = collect(("unifincr-credits", "c3"))
    credits = attribution(groups["unifincr-credits"], tail=TAIL)
    c3 = attribution(groups["c3"], tail=TAIL)

    report = "\n\n".join([
        f"hot-shard p{TAIL:g} critical-path attribution "
        f"({N_TASKS} tasks x seeds {list(SEEDS)}, sample=1.0)",
        render_attribution(credits),
        render_attribution(c3),
        render_diff(credits, c3),
    ])
    print("\n" + report)
    save_report(
        "trace_attribution",
        report,
        data={
            "scenario": "hot-shard",
            "tail": TAIL,
            "n_tasks": N_TASKS,
            "seeds": list(SEEDS),
            "attributions": [credits.to_dict(), c3.to_dict()],
            "diff_credits_to_c3": diff_attributions(credits, c3),
        },
    )

    # Attribution accounts for 100% of tail latency in both groups.
    assert abs(sum(credits.shares.values()) - 1.0) < 1e-9
    assert abs(sum(c3.shares.values()) - 1.0) < 1e-9

    # The credits realization queues on the hot shard: queue_wait
    # dominates, and partition 0 owns (nearly) all of it.
    kind, share = credits.dominant()
    assert kind == "queue_wait"
    assert share > 0.5
    queue_total = sum(credits.queue_by_partition.values())
    assert credits.queue_by_partition.get(0, 0.0) > 0.8 * queue_total

    # C3 shifts the wait client-side: its pacing gate dominates and the
    # hot shard's server queue all but vanishes from the critical path.
    kind, share = c3.dominant()
    assert kind == "credit_wait"
    assert c3.shares["queue_wait"] < 0.2
