"""The traced runs behind ``--trace 1``: where the per-layer numbers come from.

End-to-end metrics are measured with tracing off.  This module makes the
separate runs that explain them, all driven from ``bench/``:

A. *profile* -- one repeat under ``cProfile``, each function's self time
   and call count attributed to the ``src/repro/`` package its file lives
   in (``runtime`` = builtins + stdlib).  For the live workloads the server
   runs in this process so one profile covers both sides.
B. *spans* -- one repeat with ``trace_sample=1.0`` through the repo's own
   recorder; critical-path segments per kind, mean and share of the p99
   tail.
C. *counts* -- read at the public boundaries of an untraced reference
   repeat of the same size, which is also what A and B are compared with
   to get the tracing overheads.
D. ``layers.py`` microbenchmarks, and for the open loop the rate ladder.

(Named ``tracing`` rather than ``trace``: this directory is first on
``sys.path`` and would shadow the standard library's ``trace``.)
"""

from __future__ import annotations

import cProfile
import pstats
import typing as _t

import layers
from workloads import (
    FirehoseWorkload,
    OpenLoopWorkload,
    Run,
    SimWorkload,
    Workload,
    latencies_ms,
    steady_state,
)

from repro.harness import run_experiment
from repro.loadgen import LiveTransportError
from repro.trace import RunTraces, attribution

LAYERS = (
    "sim", "workload", "placement", "core", "baselines", "scheduling",
    "cluster", "metrics", "harness", "serve", "loadgen", "trace", "runtime",
)  # fmt: skip
SEGMENTS = (
    "sched_lag", "credit_wait", "network_out", "queue_wait", "service", "network_in",
)  # fmt: skip
#: time_scale -> nominal multigets/s of the steady-state trace.
LADDER = ((25.0, 408), (12.5, 816), (8.0, 1275), (5.0, 2040))
#: The profiled open loop runs this slowly so that the profiler's 2-4x
#: cannot saturate the one event loop both sides share.
PROFILE_TIME_SCALE = 100.0


def _layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to.

    ``idle`` (the event loop asleep in ``epoll``) and ``bench`` (this
    directory, including the calibration spins) are not layers: they count
    towards the profiled wall time but are not reported.
    """
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts and "src" in parts:
        package = parts[parts.index("repro") + 1]
        # cli.py, scenarios/, analysis/: assembly code, reported with harness
        return package if package in LAYERS else "harness"
    if len(parts) >= 2 and parts[-2] == "bench":
        return "bench"
    return "runtime"


def profile_by_layer(
    profile: cProfile.Profile,
) -> _t.Dict[str, _t.Tuple[float, int]]:
    """layer -> (self seconds, calls) from one finished profile."""
    totals: _t.Dict[str, _t.List[float]] = {}
    for (filename, _line, func), (_cc, calls, self_s, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():  # type: ignore[attr-defined]
        layer = "idle" if func.startswith("<method 'poll' of 'select.") else _layer_of(filename)
        entry = totals.setdefault(layer, [0.0, 0])
        entry[0] += self_s
        entry[1] += calls
    return {layer: (entry[0], int(entry[1])) for layer, entry in totals.items()}


def _profile_metrics(
    workload: Workload, seed: int, reference: Run, failures: _t.List[str]
) -> _t.Dict[str, float]:
    profile = cProfile.Profile()
    scale = PROFILE_TIME_SCALE if isinstance(workload, OpenLoopWorkload) else None
    run = workload.run(seed, workload.n_profiled, profiler=profile, time_scale=scale)
    failures += [f"profiled run: {f}" for f in workload.check(run, workload.n_profiled)]
    by_layer = profile_by_layer(profile)
    total = sum(self_s for self_s, _ in by_layer.values())
    if abs(total - run.profiled_s) > 0.05 * run.profiled_s:
        failures.append(
            f"profile self times sum to {total:.3f}s, the profiled call took "
            f"{run.profiled_s:.3f}s"
        )
    out = {}
    for layer in LAYERS:
        self_s, calls = by_layer.get(layer, (0.0, 0))
        out[f"{layer}.self_us_per_task"] = run.us_per_task(self_s)
        out[f"{layer}.calls_per_task"] = calls / run.tasks
    # CPU, not throughput: a paced open loop's throughput is its schedule.
    out["bench.profile_slowdown_x"] = (
        run.end_to_end()["cpu_us_per_task"] / reference.end_to_end()["cpu_us_per_task"]
    )
    return out


def _span_metrics(
    workload: Workload, seed: int, reference: Run, failures: _t.List[str]
) -> _t.Dict[str, float]:
    run = workload.run(seed, workload.n_traced, trace_sample=1.0)
    failures += [f"span run: {f}" for f in workload.check(run, workload.n_traced)]
    traces = run.result.traces
    sums: _t.Dict[str, float] = dict.fromkeys(SEGMENTS, 0.0)
    covered = 0.0
    for trace in traces:
        for kind, value, _span in trace.critical_path():
            covered += value
            if kind in sums:
                sums[kind] += value
    latency = sum(trace.latency for trace in traces)
    # Exact in the sim.  The live realm stamps a span's end and its task's
    # completion with two reads of the wall clock, so one host stall between
    # them shows in that task; over all tasks the sums agree within 1%.
    tolerance = 1e-9 if isinstance(workload, SimWorkload) else 0.01
    if abs(covered - latency) > tolerance * latency:
        failures.append(
            f"span segments sum to {covered!r} s over {len(traces)} tasks, "
            f"their latencies to {latency!r} s"
        )
    tail = attribution(
        RunTraces(
            strategy=run.result.config.strategy,
            scenario="steady-state",
            realm="bench",
            sample=1.0,
            traces=traces,
        ),
        tail=99.0,
    )
    out = {}
    for kind in SEGMENTS:
        out[f"trace.seg.{kind}_ms_mean"] = sums[kind] / len(traces) * 1e3
        out[f"trace.seg.{kind}_tail_share"] = tail.shares.get(kind, 0.0)
    out["trace.overhead_frac"] = 1.0 - (
        reference.end_to_end()["cpu_us_per_task"] / run.end_to_end()["cpu_us_per_task"]
    )
    return out


def _sim_live_ratios(workload: OpenLoopWorkload, seed: int, live: Run) -> _t.Dict[str, float]:
    """Live / simulated latency on the identical config and seed."""
    config = steady_state(workload.strategy, workload.n_traced)
    p50_ms, p99_ms, _ = latencies_ms(run_experiment(config, seed=seed))
    return {
        "loadgen.sim_live_p50_ratio": live.p50_ms / p50_ms,
        "loadgen.sim_live_p99_ratio": live.p99_ms / p99_ms,
    }


def _ladder(
    workload: OpenLoopWorkload, seed: int, first_rung: Run
) -> _t.Tuple[_t.Dict[str, float], _t.List[str]]:
    """p50 at four offered rates and the highest rate that still holds.

    A rung *holds* while its p50 stays within 2x the first rung's and the
    generator stays on schedule.  A staircase with four steps is a
    diagnostic, not an end-to-end metric.  Rungs after the first one that
    fails outright are not attempted.
    """
    out: _t.Dict[str, float] = {}
    unreached: _t.List[str] = []
    knee = 0.0
    run: _t.Optional[Run] = first_rung
    for time_scale, rate in LADDER:
        name = f"loadgen.ladder_p50_ms.{rate}"
        if run is None:
            try:
                run = workload.run(seed, workload.n_traced, time_scale=time_scale)
            except LiveTransportError:
                unreached += [f"loadgen.ladder_p50_ms.{r}" for _s, r in LADDER if r >= rate]
                break
        out[name] = run.p50_ms
        lag_ms = run.result.extras["schedule_lag_mean_s"] * 1e3
        if run.p50_ms <= 2.0 * first_rung.p50_ms and lag_ms < workload.max_schedule_lag_ms:
            knee = run.tasks / run.wall_s
        run = None
    out["loadgen.knee_tasks_per_s"] = knee
    return out, unreached


def measure_per_layer(
    workload: Workload, seed: int, names: _t.Sequence[str], quick: bool = False
) -> _t.Dict[str, _t.Any]:
    """Every per-layer metric of BENCHMARK.json (``names``) for one workload.

    A metric that does not apply to the workload is reported as 0 on the
    result line, because the driver wants every name on every workload,
    and is listed under ``not_applicable``.
    """
    failures: _t.List[str] = []
    reference = workload.run(seed, workload.n_traced)
    failures += [f"reference run: {f}" for f in workload.check(reference, workload.n_traced)]
    values = dict(workload.boundary_counts(reference))
    values.update(_profile_metrics(workload, seed, reference, failures))
    if not isinstance(workload, FirehoseWorkload):  # no strategy stack, no spans
        values.update(_span_metrics(workload, seed, reference, failures))
    unreached: _t.List[str] = []
    if isinstance(workload, OpenLoopWorkload):
        values.update(_sim_live_ratios(workload, seed, reference))
        rungs, unreached = _ladder(workload, seed, reference)
        values.update(rungs)
    values.update(
        layers.run_layers(seed, **(layers.QUICK if quick else layers.TRACED))
    )
    unknown = sorted(set(values) - set(names))
    if unknown:
        failures.append(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        "metrics": {n: {"median": values.get(n, 0.0), "n": 1} for n in names},
        "not_applicable": [n for n in names if n not in values] + unreached,
        "failures": failures,
    }
