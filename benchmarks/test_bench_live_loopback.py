"""Live loopback benchmark: wall-clock p50/p99 per strategy.

Starts an in-process :class:`~repro.serve.LiveServer` and drives it with
the scenario-replaying load generator, once per strategy, recording the
live percentiles next to a matching simulation of the identical config.
This is the acceptance benchmark for the live serving subsystem: every
strategy must complete its full multiget count, and BRB's credits
realization must keep its tail at or below the C3 baseline *on real
concurrency*, mirroring the simulated ordering.

Scale: 1500 multigets -- roughly half a minute of wall time across the
strategies -- at the serve default time scale (25; larger = more timer
headroom, longer wall time).
"""

import asyncio

from conftest import save_report

from repro.analysis import render_table
from repro.harness import run_experiment
from repro.loadgen import run_live
from repro.scenarios import get_scenario
from repro.serve import DEFAULT_TIME_SCALE, LiveServer

STRATEGIES = ("c3", "unifincr-credits", "equalmax-credits")
SCENARIO = "steady-state"
N_TASKS = 1500


async def run_one_live(config, time_scale):
    server = LiveServer.from_config(config, time_scale=time_scale, port=0)
    await server.start()
    try:
        return await run_live(config, seed=1, endpoints=[(server.host, server.port)])
    finally:
        await server.stop()


def run_loopback_bench(n_tasks, time_scale):
    scenario = get_scenario(SCENARIO)
    rows = []
    raw = {"scenario": SCENARIO, "n_tasks": n_tasks, "time_scale": time_scale,
           "strategies": {}}
    for strategy in STRATEGIES:
        config = scenario.build_config(strategy=strategy, n_tasks=n_tasks)
        live = asyncio.run(run_one_live(config, time_scale))
        sim = run_experiment(config, seed=1)
        live_summary = live.summary((50.0, 99.0))
        sim_summary = sim.summary((50.0, 99.0))
        assert live.tasks_completed == n_tasks, (
            f"{strategy}: live run lost tasks "
            f"({live.tasks_completed}/{n_tasks})"
        )
        rows.append(
            {
                "strategy": strategy,
                "live p50 (ms)": live_summary.median * 1e3,
                "live p99 (ms)": live_summary.p99 * 1e3,
                "sim p50 (ms)": sim_summary.median * 1e3,
                "sim p99 (ms)": sim_summary.p99 * 1e3,
                "wall (s)": live.extras["live_wall_duration_s"],
            }
        )
        raw["strategies"][strategy] = {
            "live_p50_ms": live_summary.median * 1e3,
            "live_p99_ms": live_summary.p99 * 1e3,
            "sim_p50_ms": sim_summary.median * 1e3,
            "sim_p99_ms": sim_summary.p99 * 1e3,
            "tasks_completed": live.tasks_completed,
            "requests_served": live.requests_served,
            "wall_duration_s": live.extras["live_wall_duration_s"],
        }
    return rows, raw


def test_live_loopback():
    n_tasks, time_scale = N_TASKS, DEFAULT_TIME_SCALE
    rows, raw = run_loopback_bench(n_tasks, time_scale)

    report = render_table(
        rows,
        title=(
            f"live loopback vs sim -- {SCENARIO}, {n_tasks} multigets, "
            f"time scale {time_scale:g}x"
        ),
        float_fmt=".3f",
    )
    print()
    print(report)
    save_report("live_loopback", report, raw)

    by_name = {row["strategy"]: row for row in rows}
    for row in rows:
        assert 0 < row["live p99 (ms)"] < float("inf")
    # The paper's ordering must carry over to real concurrency: BRB's
    # realizable credits tail no worse than the C3 baseline.
    assert (
        by_name["unifincr-credits"]["live p99 (ms)"]
        <= by_name["c3"]["live p99 (ms)"]
    ), "live run inverted the BRB vs C3 tail ordering"
