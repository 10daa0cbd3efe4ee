"""The four benchmark workloads and how one repeat of each is measured.

Every layer is driven from outside through its public entry points
(``run_experiment``, ``run_live``, ``run_firehose``, ``ServeSupervisor``,
``LiveServer``).  One *repeat* builds a fresh cluster (and, for the live
workloads, forks a fresh one-process server), runs the timed call under a
:class:`~noise.Calibrator` and returns a :class:`Run`.

**What ``--seed`` draws.**  The paper replays one fixed production trace
under several seeds; so does this benchmark.  The trace *content* -- each
task's fan-out, its keys and the value size stored under every key -- is
pinned to ``TRACE_SEED``; ``--seed`` draws the arrival times, the client
each task lands on, the simulated network latency and the strategies'
own randomness.  Re-rolling the content as well moves the result with the
sizes of the few hottest Zipf keys: over ten seeds the simulated p50
spread by 13% and p99 by 37% of their medians; with the content pinned
they spread by 0.8% and 4.4% at 20k tasks.
"""

from __future__ import annotations

import asyncio
import cProfile
import dataclasses
import resource
import time
import typing as _t

from noise import SPIN_REF_S, Meter

from repro.cluster.topology import ClusterSpec
from repro.harness import ExperimentConfig, RunResult, run_experiment
from repro.loadgen import FirehoseResult, run_firehose, run_live
from repro.scenarios import get_scenario
from repro.serve import LiveServer, ServeSupervisor
from repro.sim.rng import StreamFactory
from repro.workload.soundcloud import SoundCloudWorkload

TRACE_SEED = 1
_PINNED_STREAMS = frozenset({"workload.fanout", "workload.keys"})


class _PinnedContentStreams:
    """The stream factory ``TaskGenerator`` sees: content streams (and the
    per-key value sizes, via ``root_seed``) from ``TRACE_SEED``, every
    other stream from the run's own seed."""

    root_seed = TRACE_SEED

    def __init__(self, varying: StreamFactory) -> None:
        self._varying = varying
        self._pinned = StreamFactory(TRACE_SEED)

    def stream(self, name: str) -> _t.Any:
        source = self._pinned if name in _PINNED_STREAMS else self._varying
        return source.stream(name)


@dataclasses.dataclass
class _PinnedContentWorkload(SoundCloudWorkload):
    def generator(self, streams: StreamFactory) -> _t.Any:
        return super().generator(_t.cast(StreamFactory, _PinnedContentStreams(streams)))


@dataclasses.dataclass(frozen=True)
class BenchConfig(ExperimentConfig):
    """An ``ExperimentConfig`` whose workload replays the pinned trace."""

    def workload(self) -> SoundCloudWorkload:
        base = super().workload()
        return _PinnedContentWorkload(
            **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
        )


def steady_state(strategy: str, n_tasks: int, **overrides: _t.Any) -> BenchConfig:
    base = get_scenario("steady-state").build_config(
        strategy=strategy, n_tasks=n_tasks, **overrides
    )
    return BenchConfig(
        **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    )


# ---------------------------------------------------------------------------
# One repeat's measurements
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Run:
    """One repeat, as measured: host times are raw seconds.

    :meth:`end_to_end` reports them in calibrated seconds (see ``noise``)
    or raw; both go into the artifact, side by side.
    """

    tasks: int
    attempted: int
    failed: int
    #: Host seconds of the timed call.
    wall_s: float
    client_cpu_s: float
    server_cpu_s: float
    p50_ms: float
    p99_ms: float
    #: p99.9 when at least ten samples lie beyond it, else None.
    p999_ms: _t.Optional[float]
    rss_mb: float
    #: Mean of the spins timed while the call ran.
    spin_s: float
    result: _t.Any
    #: Host seconds between profiler enable and disable (traced runs).
    profiled_s: float = 0.0
    #: ``wall_s`` was set by a schedule, not by the CPU (open loop): never scaled.
    paced: bool = False
    #: ``p50_ms``/``p99_ms`` are host time (firehose RTT), not model time.
    host_latency: bool = False

    @property
    def scale(self) -> float:
        """Raw host seconds -> calibrated seconds, as seen by this repeat."""
        return SPIN_REF_S / self.spin_s

    def us_per_task(self, host_s: float, calibrated: bool = True) -> float:
        return host_s * (self.scale if calibrated else 1.0) / self.tasks * 1e6

    def end_to_end(self, calibrated: bool = True) -> _t.Dict[str, float]:
        host = self.scale if calibrated else 1.0
        latency = host if self.host_latency else 1.0
        return {
            "tasks_per_s": self.tasks / (self.wall_s * (1.0 if self.paced else host)),
            "task_p50_ms": self.p50_ms * latency,
            "task_p99_ms": self.p99_ms * latency,
            "cpu_us_per_task": self.us_per_task(
                self.client_cpu_s + self.server_cpu_s, calibrated
            ),
            "peak_rss_mb": self.rss_mb,
        }


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def latencies_ms(result: RunResult) -> _t.Tuple[float, float, _t.Optional[float]]:
    """(p50, p99, p99.9 if at least ten samples lie beyond it) in ms."""
    sample = result.task_latencies
    p999 = sample.percentile(99.9) * 1e3 if sample.count >= 10_000 else None
    return sample.percentile(50.0) * 1e3, sample.percentile(99.0) * 1e3, p999


class _Profiled:
    """Enables ``profiler`` (if any) for the ``with`` body and times it."""

    def __init__(self, profiler: _t.Optional[cProfile.Profile]) -> None:
        self.profiler = profiler
        self.elapsed_s = 0.0

    def __enter__(self) -> "_Profiled":
        self._started = time.perf_counter()
        if self.profiler is not None:
            self.profiler.enable()
        return self

    def __exit__(self, *exc_info: _t.Any) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.elapsed_s = time.perf_counter() - self._started


def _measured(meter: Meter, server_cpu_s: float = 0.0, **fields: _t.Any) -> "Run":
    """A :class:`Run` with what every workload reads off its meter."""
    return Run(
        client_cpu_s=meter.cpu_s,
        server_cpu_s=server_cpu_s,
        rss_mb=_rss_mb(),
        spin_s=meter.calibrator.spin_s,
        **fields,
    )


def _against_server(
    config: ExperimentConfig,
    time_scale: float,
    seed: int,
    drive: _t.Callable[[_t.List[_t.Tuple[str, int]]], _t.Awaitable[_t.Any]],
    in_process: bool,
) -> _t.Tuple[_t.Any, Meter, float]:
    """Run ``drive(endpoints)`` on one loop against a fresh server.

    Forked (``ServeSupervisor(procs=1)``) for measured runs; in this
    process for profiled ones, so one profile covers both sides.  Returns
    the result, the client-side meter and the server's raw CPU seconds
    (0 in-process: there it is inside the client's).
    """
    meter = Meter()
    if in_process:

        async def main() -> _t.Any:
            server = LiveServer.from_config(
                config, time_scale=time_scale, seed=seed, port=0
            )
            await server.start()
            try:
                return await drive([(server.host, server.port)])
            finally:
                await server.stop()

        with meter:
            result = asyncio.run(main())
        return result, meter, 0.0

    cpu0 = _children_cpu_s()
    supervisor = ServeSupervisor(
        config, procs=1, time_scale=time_scale, seed=seed, base_port=0
    )
    endpoints = supervisor.start()
    try:
        with meter:
            result = asyncio.run(drive(endpoints))
    finally:
        supervisor.stop()  # reaps the child, which is what books its CPU
    return result, meter, _children_cpu_s() - cpu0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Sizes are multigets: ``n`` per timed repeat, ``n_setup`` for the
    set-up sample (a small discarded repeat), ``n_traced`` for traced runs
    and ``n_profiled`` for the one under ``cProfile``."""

    name: str
    why: str
    loop: str
    n: int
    n_setup: int
    n_traced: int
    n_profiled: int

    def run(
        self,
        seed: int,
        n: int,
        trace_sample: float = 0.0,
        profiler: _t.Optional[cProfile.Profile] = None,
        time_scale: _t.Optional[float] = None,
    ) -> Run:
        raise NotImplementedError

    def boundary_counts(self, run: Run) -> _t.Dict[str, float]:
        """Per-layer counts read at the public boundaries of an untraced run."""
        raise NotImplementedError

    def check(self, run: Run, n: int) -> _t.List[str]:
        """Failed output checks of one repeat (empty = correct)."""
        raise NotImplementedError

    def digest(self, run: Run) -> _t.Optional[str]:
        """What must be identical in every run of one seed, if anything."""
        return None

    def check_run(self, counts: _t.Mapping[str, float]) -> _t.List[str]:
        """Failed checks on a run's boundary counts (medians over its repeats)."""
        return []


def _strategy_counts(result: RunResult, n: int) -> _t.Dict[str, float]:
    extras = result.extras
    requests = max(result.requests_served, 1)
    return {
        "cluster.requests_per_task": result.requests_served / n,
        "cluster.server_utilization": extras["mean_server_utilization"],
        "core.gated_frac": extras.get("gated_requests", 0.0) / requests,
        "core.credit_grants_per_task": extras.get("credit_grants", 0.0) / n,
        "core.congestion_signals_per_task": extras.get("congestion_signals", 0.0) / n,
    }


class SimWorkload(Workload):
    loop = "simulated open loop (Poisson arrivals on the model clock)"
    n, n_setup, n_traced, n_profiled = 20_000, 2_000, 5_000, 5_000

    def __init__(self, name: str, strategy: str, why: str) -> None:
        self.name, self.strategy, self.why = name, strategy, why
        self._ops: _t.Dict[int, int] = {}

    def run(self, seed, n, trace_sample=0.0, profiler=None, time_scale=None):
        config = steady_state(self.strategy, n, trace_sample=trace_sample)
        span = _Profiled(profiler)
        with Meter() as meter, span:
            result = run_experiment(config, seed=seed)
        p50, p99, p999 = latencies_ms(result)
        return _measured(
            meter,
            tasks=n,
            attempted=n,
            failed=n - result.tasks_completed,
            wall_s=meter.wall_s,
            p50_ms=p50,
            p99_ms=p99,
            p999_ms=p999,
            result=result,
            profiled_s=span.elapsed_s,
        )

    def boundary_counts(self, run):
        result: RunResult = run.result
        counts = _strategy_counts(result, run.tasks)
        counts["sim.events_per_task"] = result.events_processed / run.tasks
        counts["sim.events_per_s"] = result.events_processed / (run.wall_s * run.scale)
        return counts

    def digest(self, run):
        return run.result.to_dict()["task_latency_digest"]

    def generated_ops(self, n: int) -> int:
        """Operations in the first ``n`` tasks of the (pinned) trace."""
        if n not in self._ops:
            tasks = steady_state(self.strategy, n).workload().generate(TRACE_SEED)
            self._ops[n] = sum(task.fanout for task in tasks)
        return self._ops[n]

    def check(self, run, n):
        result: RunResult = run.result
        failures = []
        if result.tasks_completed != n:
            failures.append(f"completed {result.tasks_completed} of {n} tasks")
        if result.requests_served != self.generated_ops(n):
            failures.append(
                f"served {result.requests_served} requests, the trace has "
                f"{self.generated_ops(n)} operations"
            )
        return failures


class OpenLoopWorkload(Workload):
    name = "live-openloop-brb"
    why = (
        "sim-steady-brb's strategy stack through the other Clock/Transport "
        "binding (WallClock + LiveTransport + serve), paced at ~408 multigets/s "
        "(time_scale 25, ~25% of the generator's ceiling): a core/cluster change "
        "that helps the sim but costs the live path shows here"
    )
    loop = "open loop: the trace's Poisson schedule, latency from each task's due time"
    # Profiled at time_scale 100 (see tracing.py): 1000 tasks take 10 s.
    n, n_setup, n_traced, n_profiled = 2_500, 300, 2_000, 1_000
    strategy = "unifincr-credits"
    time_scale = 25.0
    #: Generator lateness above this (model ms) makes the run *invalid*:
    #: a late generator is a silently closed loop.
    max_schedule_lag_ms = 1.0

    def run(self, seed, n, trace_sample=0.0, profiler=None, time_scale=None):
        config = steady_state(self.strategy, n, trace_sample=trace_sample)
        scale = self.time_scale if time_scale is None else time_scale
        span = _Profiled(profiler)

        async def drive(endpoints):
            with span:
                return await run_live(config, seed=seed, endpoints=endpoints, pool=1)

        result, meter, server_cpu = _against_server(
            config, scale, seed, drive, in_process=profiler is not None
        )
        p50, p99, p999 = latencies_ms(result)
        return _measured(
            meter,
            server_cpu,
            tasks=n,
            attempted=n,
            failed=n
            - result.tasks_completed
            + int(result.extras["live_requests_rejected"]),
            wall_s=result.extras["live_wall_duration_s"],
            p50_ms=p50,
            p99_ms=p99,
            p999_ms=p999,
            result=result,
            profiled_s=span.elapsed_s,
            paced=True,
        )

    def boundary_counts(self, run):
        result: RunResult = run.result
        extras = result.extras
        counts = _strategy_counts(result, run.tasks)
        counts.update(
            {
                "loadgen.schedule_lag_mean_ms": extras["schedule_lag_mean_s"] * 1e3,
                "loadgen.schedule_lag_max_ms": extras["schedule_lag_max_s"] * 1e3,
                "loadgen.client_cpu_us_per_task": run.us_per_task(run.client_cpu_s),
                "serve.server_cpu_us_per_task": run.us_per_task(run.server_cpu_s),
                # ops sent + responses received, one frame each
                "loadgen.frames_per_task": result.events_processed / run.tasks,
                "serve.rejected": extras["live_requests_rejected"],
                "serve.congestion_frames": extras["live_congestion_frames"],
            }
        )
        return counts

    def check(self, run, n):
        result: RunResult = run.result
        extras = result.extras
        failures = []
        if result.tasks_completed != n:
            failures.append(f"completed {result.tasks_completed} of {n} tasks")
        if extras["live_requests_rejected"]:
            failures.append(f"{extras['live_requests_rejected']:.0f} requests rejected")
        if extras["live_protocol"] != 2:
            failures.append(f"negotiated protocol {extras['live_protocol']:.0f}, not 2")
        return failures

    def check_run(self, counts):
        # On the run's reported lag, the median over its repeats: one
        # hypervisor stall of half a second makes one repeat's generator
        # late on average, while a system that cannot hold the offered
        # rate is late in every repeat.
        lag_ms = counts["loadgen.schedule_lag_mean_ms"]
        if lag_ms >= self.max_schedule_lag_ms:
            return [
                f"INVALID: generator ran {lag_ms:.3f} model-ms late on average "
                f"(limit {self.max_schedule_lag_ms}); the loop was not open"
            ]
        return []


class FirehoseWorkload(Workload):
    name = "live-firehose-fanout8"
    why = (
        "paper-shaped fan-out-8 multigets with no strategy stack: serve (codec, "
        "LiveServer, LiveWorker pump) and loadgen framing (BatchWriter, "
        "FrameStream) do all the work, core/baselines/cluster/sim none; serve "
        "saturated where live-openloop-brb paces it"
    )
    loop = "closed loop: 64 multigets in flight on one connection"
    n, n_setup, n_traced, n_profiled = 40_000, 4_000, 20_000, 10_000
    fanout, window = 8, 64
    time_scale = 0.02
    max_bytes_per_op = 45.0

    @staticmethod
    def config() -> ExperimentConfig:
        """A backend that outruns the transport (the shape of
        ``benchmarks/test_bench_live_throughput.py::bench_config``)."""
        return get_scenario("steady-state").build_config(
            strategy="c3",
            n_tasks=1,
            cluster=ClusterSpec(n_servers=8, cores_per_server=64),
            congestion_check_interval=50.0,
        )

    def run(self, seed, n, trace_sample=0.0, profiler=None, time_scale=None):
        span = _Profiled(profiler)

        async def drive(endpoints):
            with span:
                return await run_firehose(
                    endpoints,
                    multigets=n,
                    fanout=self.fanout,
                    window=self.window,
                    pool=1,
                    protocol=2,
                )

        # The op stream is fixed by construction; the seed reaches the
        # server's own streams only.
        result, meter, server_cpu = _against_server(
            self.config(), self.time_scale, seed, drive, in_process=profiler is not None
        )
        result = _t.cast(FirehoseResult, result)
        run = _measured(
            meter,
            server_cpu,
            tasks=n,
            attempted=n,
            failed=0,  # run_firehose raises unless every multiget completes
            wall_s=result.elapsed_s,
            p50_ms=result.p50_ms,
            p99_ms=result.p99_ms,
            p999_ms=None,
            result=result,
            profiled_s=span.elapsed_s,
            host_latency=True,
        )
        # CPU covers the discarded firehose warm-up too; rates do not.
        measured_share = n / self.issued(n)
        run.client_cpu_s *= measured_share
        run.server_cpu_s *= measured_share
        return run

    def issued(self, n: int) -> int:
        """Multigets ``run_firehose`` sends for ``n`` measured ones (its
        default warm-up is ``min(max(window, 100), multigets)``)."""
        return n + min(max(self.window, 100), n)

    def boundary_counts(self, run):
        result: FirehoseResult = run.result
        io = result.client_io
        return {
            "loadgen.client_cpu_us_per_task": run.us_per_task(run.client_cpu_s),
            "serve.server_cpu_us_per_task": run.us_per_task(run.server_cpu_s),
            "loadgen.frames_per_task": (io["frames_sent"] + io["frames_received"])
            / run.tasks,
            "loadgen.writes_per_task": result.writes_per_multiget,
            "loadgen.bytes_per_op": result.bytes_per_op,
            "serve.rejected": float(result.server_io.get("rejected", 0)),
            "serve.congestion_frames": float(result.congestion_frames),
        }

    def check(self, run, n):
        result: FirehoseResult = run.result
        failures = []
        if result.multigets != n:
            failures.append(f"completed {result.multigets} of {n} multigets")
        # The server is fresh, so its ledger is this run's: every op issued
        # (the firehose's own warm-up included) served exactly once.  The
        # client's measured-span frame count cannot say that: results of
        # measured multigets that arrive before the warm-up drains fall
        # outside the span.
        issued_ops = self.issued(n) * self.fanout
        served = result.server_io.get("completed")
        if served != issued_ops or result.server_io.get("rejected"):
            failures.append(
                f"server completed {served} and rejected "
                f"{result.server_io.get('rejected')} of {issued_ops} ops issued"
            )
        if result.bytes_per_op >= self.max_bytes_per_op:
            failures.append(
                f"{result.bytes_per_op:.1f} bytes/op on the wire: the binary "
                "codec was not negotiated"
            )
        if result.protocol != 2:
            failures.append(f"negotiated protocol {result.protocol}, not 2")
        return failures


WORKLOADS: _t.Dict[str, Workload] = {
    w.name: w
    for w in (
        SimWorkload(
            "sim-steady-brb",
            "unifincr-credits",
            "the paper's headline cell in the sim realm: core (split, price, "
            "UnifIncr, credit gates, controller) + cluster + the sim kernel do the "
            "work; baselines, serve and loadgen do none",
        ),
        SimWorkload(
            "sim-steady-c3",
            "c3",
            "same trace through the same sim/cluster/workload/placement path but "
            "bypassing core: baselines (C3 ranking, cubic pacing) and metrics "
            "(windowed rates) carry it, so a core optimisation must not move it",
        ),
        OpenLoopWorkload(),
        FirehoseWorkload(),
    )
}
