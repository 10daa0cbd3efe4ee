"""Kernel event-throughput benchmark: the bench trajectory's speed data.

Measures events/sec and tasks/sec for

* ``micro`` -- the classic bank-of-timers stress test driven through the
  process + ``timeout()`` path (the same workload
  ``results/event_throughput_baseline.json`` records for the pre-overhaul
  engine);
* ``micro_callback`` -- the same ticker bank on the calendar's bare
  ``call_later`` Timer fast path (no Event wrapper, no process);
* one full simulation per strategy (steady-state scenario), where the
  kernel, the workload generator and the cluster substrate all run.

Writes ``results/event_throughput.json`` including the speedup against
the committed pre-overhaul baseline.  Raw events/sec are machine-bound,
so every measurement also records a pure-Python calibration spin rate;
the ``normalized`` values (events per spin) transfer across machines.
CI's perf-smoke gate compares work per spin -- events for the micro
tickers, *tasks* for the full runs (see
``benchmarks/check_event_throughput.py`` and ``docs/performance.md``).
"""

import json
import time
from pathlib import Path

from conftest import pingpong_events, save_report

from repro.cluster import Network
from repro.harness.runner import RunAssembly, run_experiment
from repro.scenarios import get_scenario
from repro.sim import Environment, StreamFactory

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = RESULTS_DIR / "event_throughput_baseline.json"

STRATEGIES = ("c3", "unifincr-credits")
N_TASKS = 2000
#: Best-of is reported.
REPEATS = 3


def calibration_spin(n=2_000_000):
    """Pure-Python spin rate (iterations/sec): the machine-speed yardstick.

    Touches no repro code, so it is identical pre/post any engine change;
    dividing events/sec by it cancels most of the machine dependence.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i
    return n / (time.perf_counter() - t0)


def callback_ticker(n_timers=100, horizon=100.0):
    """Same ticker bank on the bare-callback Timer fast path."""
    env = Environment()

    def make(period):
        def tick(_arg):
            env.call_later(period, tick)

        return tick

    for i in range(n_timers):
        env.call_later(0.0, make(0.5 + 0.01 * i))
    env.run(until=horizon)
    return env.events_processed


def _best_rate(fn, repeats=REPEATS):
    """(best events/sec, events) over ``repeats`` runs (min wall time)."""
    best = 0.0
    events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = fn()
        elapsed = time.perf_counter() - t0
        best = max(best, events / elapsed)
    return best, events


def measure_throughput():
    """All throughput sections of the results JSON (no baseline fields)."""
    spins = max(calibration_spin() for _ in range(3))
    out = {"calibration_spins_per_sec": spins, "strategies": {}}
    for name, fn in (("micro", pingpong_events), ("micro_callback", callback_ticker)):
        rate, events = _best_rate(fn)
        out[name] = {
            "events_per_sec": rate,
            "events": events,
            "normalized": rate / spins,
        }
    for strategy in STRATEGIES:
        config = get_scenario("steady-state").build_config(
            strategy=strategy, n_tasks=N_TASKS
        )
        best_events = 0.0
        best_tasks = 0.0
        events = 0
        for _ in range(max(2, REPEATS - 1)):
            t0 = time.perf_counter()
            result = run_experiment(config, seed=1)
            elapsed = time.perf_counter() - t0
            best_events = max(best_events, result.events_processed / elapsed)
            best_tasks = max(best_tasks, N_TASKS / elapsed)
            events = result.events_processed
        out["strategies"][strategy] = {
            "events_per_sec": best_events,
            "tasks_per_sec": best_tasks,
            "events": events,
            "n_tasks": N_TASKS,
            "normalized": best_events / spins,
        }
    out["tracing"] = measure_tracing_cells(spins)
    return out


def measure_tracing_cells(spins, strategy="unifincr-credits"):
    """Tracing-off and tracing-on cells for the overhead ledger.

    ``off`` exercises the exact production default (recorder never
    constructed -- :func:`assert_tracing_off_is_free` pins that, the
    timing here is a ledger number only); ``on`` samples every
    post-warmup task, which is the worst case — real deployments sample
    a few percent.
    """
    cells = {}
    for label, sample in (("off", 0.0), ("on", 1.0)):
        config = get_scenario("steady-state").build_config(
            strategy=strategy, n_tasks=N_TASKS, trace_sample=sample
        )
        best = 0.0
        for _ in range(max(2, REPEATS - 1)):
            t0 = time.perf_counter()
            result = run_experiment(config, seed=1)
            elapsed = time.perf_counter() - t0
            best = max(best, result.events_processed / elapsed)
        cells[label] = {
            "trace_sample": sample,
            "events_per_sec": best,
            "normalized": best / spins,
        }
    cells["strategy"] = strategy
    cells["overhead_on_pct"] = 100.0 * (
        1.0 - cells["on"]["events_per_sec"] / cells["off"]["events_per_sec"]
    )
    return cells


def assert_tracing_off_is_free(strategy):
    """``trace_sample=0`` builds no recorder and changes nothing in the run.

    The claim is structural, so it is asserted structurally: the ``off``
    cell runs the *same* config as the plain strategy cell seconds apart,
    and comparing their timings only measures how much the host's speed
    drifted in between.
    """
    scenario = get_scenario("steady-state")
    plain = scenario.build_config(strategy=strategy, n_tasks=N_TASKS)
    off = scenario.build_config(strategy=strategy, n_tasks=N_TASKS, trace_sample=0.0)
    env = Environment()
    streams = StreamFactory(1)
    network = Network(
        env,
        latency=off.cluster.make_latency_model(),
        stream=streams.stream("network.latency"),
    )
    assert RunAssembly(off, streams, env, network, lambda: None).recorder is None
    off_run = run_experiment(off, seed=1).to_dict()
    assert off_run == run_experiment(plain, seed=1).to_dict()


def _attach_baseline(data):
    """Fold the committed pre-overhaul baseline + speedups into ``data``."""
    if not BASELINE_PATH.exists():
        return data
    baseline = json.loads(BASELINE_PATH.read_text())
    pre = baseline.get("pre_pr", {})
    base_spins = baseline.get("calibration_spins_per_sec")
    data["baseline"] = baseline
    speedups = {}

    def speedup(current_rate, base_rate):
        # Normalize both sides when the baseline has a spin rate, so the
        # ratio survives a machine change.
        if base_spins:
            return (current_rate / data["calibration_spins_per_sec"]) / (
                base_rate / base_spins
            )
        return current_rate / base_rate

    if "micro" in pre:
        base_rate = pre["micro"]["events_per_sec"]
        speedups["micro"] = speedup(data["micro"]["events_per_sec"], base_rate)
        # The callback ticker is the post-overhaul fast path; its baseline
        # is the same pre-overhaul process ticker (the closest the old
        # engine comes to "schedule a bare callback").
        speedups["micro_callback"] = speedup(
            data["micro_callback"]["events_per_sec"], base_rate
        )
    for strategy in STRATEGIES:
        if strategy in pre:
            # Full runs are compared in tasks/sec: the engines differ in
            # how many calendar entries they spend per task.
            speedups[strategy] = speedup(
                data["strategies"][strategy]["tasks_per_sec"],
                pre[strategy]["tasks_per_sec"],
            )
    data["speedup_vs_pre_pr"] = speedups
    return data


def test_event_throughput_bench():
    data = _attach_baseline(measure_throughput())
    lines = [
        "kernel event throughput (best of %d):" % REPEATS,
        f"  micro (process ticker):   {data['micro']['events_per_sec']:,.0f} events/s",
        f"  micro (callback ticker):  {data['micro_callback']['events_per_sec']:,.0f} events/s",
    ]
    for strategy in STRATEGIES:
        entry = data["strategies"][strategy]
        lines.append(
            f"  {strategy:20s} {entry['events_per_sec']:,.0f} events/s, "
            f"{entry['tasks_per_sec']:,.0f} tasks/s"
        )
    for name, ratio in sorted(data.get("speedup_vs_pre_pr", {}).items()):
        lines.append(f"  speedup vs pre-overhaul [{name}]: {ratio:.2f}x")
    tracing = data["tracing"]
    lines.append(
        f"  tracing off/on [{tracing['strategy']}]: "
        f"{tracing['off']['events_per_sec']:,.0f} / "
        f"{tracing['on']['events_per_sec']:,.0f} events/s "
        f"(full-sampling cost {tracing['overhead_on_pct']:.1f}%)"
    )
    report = "\n".join(lines)
    print("\n" + report)
    save_report("event_throughput", report, data=data)

    # Sanity floor, not a perf gate (CI's perf-smoke compares per-spin
    # rates against the committed baseline with 20% slack).
    assert data["micro"]["events_per_sec"] > 50_000
    assert data["micro_callback"]["events_per_sec"] > data["micro"]["events_per_sec"] * 0.8
    for strategy in STRATEGIES:
        assert data["strategies"][strategy]["events_per_sec"] > 5_000
    # Tracing-off must be free; the off/plain timings stay in the ledger.
    assert_tracing_off_is_free(tracing["strategy"])
    # Full sampling is bounded observation cost, not a rewrite of the run.
    plain = data["strategies"][tracing["strategy"]]["events_per_sec"]
    assert tracing["on"]["events_per_sec"] > plain * 0.5
