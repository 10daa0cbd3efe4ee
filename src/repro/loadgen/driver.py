"""The live load generator: scenario replay against a running service.

:func:`run_live` is the wall-clock sibling of
:func:`repro.harness.runner.run_experiment`: both hand the same
:class:`~repro.harness.runner.RunAssembly` (strategy stack, workload,
tracker, fault injector, remediation, tracing) a clock and a transport and
get the same :class:`~repro.harness.runner.RunResult` out -- except here
requests travel over TCP to live asyncio workers instead of through the
event calendar.  What this module owns is only what wall time forces:
connecting and validating the cluster shape, the asyncio
wait/timeout/teardown loop, the open-loop :class:`Feeder` (a clock callback
like every other timed activity) and its ``schedule_lag`` honesty metric,
server stats deltas, and the :class:`LiveFaultPort` that turns the shared
fault injector's verbs into admin frames.

Because the output is a genuine ``RunResult``, everything downstream --
:func:`~repro.harness.results.compare_strategies`, the analysis tables,
the summary JSON schema -- is *shared* with the simulation rather than
imitated, which is what the sim<->live differential harness
(:mod:`repro.loadgen.compare`) relies on.
"""

from __future__ import annotations

import asyncio
import os
import time
import typing as _t

from ..cluster.faults import NetworkJitterFault
from ..core.clock import Clock
from ..harness.builders import ModelBuilder, get_builder
from ..harness.config import ExperimentConfig
from ..harness.results import compare_strategies
from ..harness.runner import RunAssembly, RunResult
from ..serve.protocol import MAX_PROTOCOL_VERSION
from ..serve.server import DEFAULT_HOST, DEFAULT_PORT
from ..sim.rng import StreamFactory
from .transport import LiveTransport, LiveTransportError


class LiveFaultPort:
    """Fault port over a live cluster: every verb is an admin frame.

    ``slowdown``/``restore`` set the targeted workers' service-time
    multiplier, ``crash``/``resume`` stop and restart them (queues
    survive), ``jitter`` adds a lognormal per-response delay standing in
    for both inflated network directions on a loopback link.  Flash crowds
    and ring rebalances never reach the wire: they are client-side in
    both realms and live in the one
    :class:`~repro.cluster.faults.FaultInjector`.
    """

    def __init__(self, transport: LiveTransport, one_way_latency: float) -> None:
        self.transport = transport
        self.n_servers = int(transport.ack["n_servers"])
        self.one_way_latency = float(one_way_latency)

    def _admin(self, command: str, **fields: _t.Any) -> None:
        self.transport.admin({"t": "admin", "cmd": command, **fields})

    def slowdown(self, servers: _t.Sequence[int], factor: float) -> None:
        self._admin("slowdown", servers=list(servers), factor=factor)

    def restore(self, servers: _t.Sequence[int], factor: float) -> None:
        self._admin("restore", servers=list(servers), factor=factor)

    def crash(self, servers: _t.Sequence[int]) -> None:
        self._admin("crash", servers=list(servers))

    def resume(self, servers: _t.Sequence[int]) -> None:
        self._admin("resume", servers=list(servers))

    def jitter(self, event: NetworkJitterFault) -> None:
        # Two degraded one-way hops' worth of extra delay per response.
        mean = max(2.0 * self.one_way_latency * event.factor, 1e-6)
        self._admin("jitter", mean=mean, sigma=event.sigma)

    def clear_jitter(self) -> None:
        self._admin("clear-jitter")


class Feeder:
    """The open-loop arrival schedule as a self-re-arming clock callback.

    ``step`` submits every task whose *absolute* due time has passed (a late
    wakeup submits its whole burst; deadlines never drift), draws the next
    one and re-arms for it.  A loop that falls behind fires tasks late and
    back-to-back, a silently closed loop: ``lag_*`` say how late (model
    seconds), so saturated runs are detectable in the summary.  An object,
    not a closure (a reference cycle through the run).
    """

    def __init__(self, clock: Clock, run: RunAssembly, n_tasks: int) -> None:
        self.clock, self.run, self.left = clock, run, n_tasks
        self.task: _t.Any = None  # drawn, not yet due
        self.next_at = self.last_arrival = self.lag_total = self.lag_max = 0.0

    def step(self, _arg: None = None) -> None:
        run, clock = self.run, self.clock
        while True:
            if self.task is not None:
                lag = clock.now - self.next_at
                if lag < 0.0:
                    clock.call_later(-lag, self.step)
                    return
                self.lag_total += lag
                self.lag_max = max(self.lag_max, lag)
                run.submit(self.task)
                self.task = None
            if not self.left:
                return
            self.left -= 1
            task = self.task = run.generator.next_task()
            gap = task.arrival_time - self.last_arrival
            self.last_arrival = task.arrival_time
            self.next_at += gap / run.faults.arrival_scale()


def _validate_shape(config: ExperimentConfig, ack: _t.Mapping[str, _t.Any]) -> None:
    """The server must match the config's backend tier, or nothing the
    client computes (placement, capacities, costs) is meaningful."""
    mismatches = []
    for field, expected in (
        ("n_servers", config.cluster.n_servers),
        ("cores_per_server", config.cluster.cores_per_server),
        ("per_core_rate", config.cluster.per_core_rate),
    ):
        if ack.get(field) != expected:
            mismatches.append(f"{field}: server {ack.get(field)!r} != {expected!r}")
    server_scenario = ack.get("scenario")
    if (
        server_scenario is not None
        and config.scenario is not None
        and server_scenario != config.scenario
    ):
        mismatches.append(
            f"scenario: server {server_scenario!r} != {config.scenario!r}"
        )
    if mismatches:
        raise LiveTransportError(
            "server/config mismatch: " + "; ".join(mismatches)
        )


async def run_live(
    config: ExperimentConfig,
    seed: int = 1,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    wall_timeout: _t.Optional[float] = None,
    endpoints: _t.Optional[_t.Sequence[_t.Tuple[str, int]]] = None,
    pool: int = 1,
    protocol: int = MAX_PROTOCOL_VERSION,
) -> RunResult:
    """Drive one (config, seed) load-generation run against a live cluster.

    ``endpoints`` lists every server process of a multi-process cluster
    (defaults to the single ``(host, port)``); ``pool`` opens that many
    connections per endpoint; ``protocol`` caps codec negotiation (1
    pins JSON).
    """
    if isinstance(get_builder(config.strategy), ModelBuilder):
        raise ValueError(
            f"strategy {config.strategy!r} is the unrealizable global-queue "
            "model; it has no live realization (that is the paper's point)"
        )
    if endpoints is None:
        endpoints = [(host, port)]
    transport = await LiveTransport.connect(
        endpoints, pool=pool, protocol=protocol
    )
    try:
        _validate_shape(config, transport.ack)
    except BaseException:
        await transport.close()
        raise
    clock = transport.clock
    done_waiter: _t.Optional["asyncio.Task[bool]"] = None
    run: _t.Optional[RunAssembly] = None
    try:
        stats_before = await asyncio.wait_for(transport.fetch_stats(), timeout=10)
        done = asyncio.Event()
        run = RunAssembly(config, StreamFactory(seed), clock, transport, done.set)
        if run.recorder is not None:
            # The transport hook propagates the trace context over the
            # wire per sampled op.
            transport.trace_sampler = run.recorder.wire_trace_id
        # The live substrate's backlog view is the piggybacked feedback
        # the transport already receives on every result frame.
        run.arm(
            LiveFaultPort(transport, config.cluster.one_way_latency),
            transport.backlog_depths,
        )
        faults = run.faults
        remediation = run.remediation
        # Close the cluster-wide observability loop: stream this load
        # generator's client-side BusSnapshots to every endpoint over the
        # admin plane, so `repro watch` and the Prometheus exporter see
        # windowed client-side percentiles even for a --procs N cluster.
        # Gated on the server's capability advertisement (old servers
        # would reject the unknown admin command and poison the stream).
        if remediation is not None and "bus-report" in transport.features:
            reporter = f"loadgen-{os.getpid()}"
            remediation.bus.subscribe(
                on_snapshot=lambda snapshot: transport.report_bus(
                    reporter, snapshot.to_dict()
                )
            )
        expected_model_s = config.n_tasks / run.workload.task_rate
        if wall_timeout is None:
            wall_timeout = max(60.0, 12.0 * expected_model_s * clock.scale + 30.0)

        feeder = Feeder(clock, run, config.n_tasks)
        wall_start = time.monotonic()
        # Model time zero = first arrival: latencies are measured against
        # the trace's intended arrival times, exactly like the simulation.
        clock.rebase()
        faults.start()
        if remediation is not None:
            clock.call_every(remediation.interval, remediation.tick)
        done_waiter = asyncio.get_running_loop().create_task(done.wait())

        # Surface background crashes immediately as the real traceback,
        # not as a mysterious timeout minutes later (the sim raises the
        # same exceptions synchronously from env.run).  The clock funnels
        # the first exception of *any* timer callback (the feeder, credit
        # reports, the controller's allocation, C3 pacing, hedge timers,
        # fault windows) into one future, so the watch set stays
        # constant-sized no matter how many short-lived per-request timers
        # a strategy arms.
        background_failure: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )

        def note_background_error(error: BaseException) -> None:
            if not background_failure.done():
                background_failure.set_exception(error)

        clock.on_error(note_background_error)
        clock.call_later(0.0, feeder.step)
        waiters: _t.Set[_t.Any] = {done_waiter, transport.failed, background_failure}
        deadline = asyncio.get_running_loop().time() + wall_timeout
        try:
            while not done.is_set():
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    raise LiveTransportError(
                        f"live run timed out after {wall_timeout:.0f}s wall: "
                        f"{run.tracker.completed}/{config.n_tasks} tasks completed, "
                        f"{transport.pending_ops} ops in flight"
                    )
                await asyncio.wait(
                    waiters, timeout=remaining, return_when=asyncio.FIRST_COMPLETED
                )
                if transport.failed.done():
                    raise transport.failed.exception()  # type: ignore[misc]
                if background_failure.done():
                    raise _t.cast(
                        BaseException, background_failure.exception()
                    )
        finally:
            if not background_failure.done():
                background_failure.cancel()
            elif not background_failure.cancelled():
                background_failure.exception()  # consume for GC hygiene
        wall_duration = time.monotonic() - wall_start
        stats_after = await asyncio.wait_for(transport.fetch_stats(), timeout=10)

        requests_served = int(
            stats_after.get("completed", 0) - stats_before.get("completed", 0)
        )
        uptime_delta = float(
            stats_after.get("uptime_model_s", 0.0)
            - stats_before.get("uptime_model_s", 0.0)
        )
        busy_delta = sum(
            float(after.get("busy_time_s", 0.0)) - float(before.get("busy_time_s", 0.0))
            for before, after in zip(
                stats_before.get("workers", []), stats_after.get("workers", [])
            )
        )
        late_delta = sum(
            float(after.get("lateness_total_s", 0.0))
            - float(before.get("lateness_total_s", 0.0))
            for before, after in zip(
                stats_before.get("workers", []), stats_after.get("workers", [])
            )
        )
        cores_total = config.cluster.n_servers * config.cluster.cores_per_server
        realm_extras: _t.Dict[str, float] = {
            "mean_server_utilization": (
                busy_delta / (uptime_delta * cores_total) if uptime_delta > 0 else 0.0
            ),
            "live_time_scale": clock.scale,
            "live_wall_duration_s": wall_duration,
            "live_requests_rejected": float(stats_after.get("rejected", 0)),
            "live_congestion_frames": float(transport.congestion_signals),
            "live_protocol": float(transport.ack.get("proto", 1)),
            "live_links": float(transport.links),
            "schedule_lag_max_s": feeder.lag_max,
            "schedule_lag_mean_s": feeder.lag_total / max(config.n_tasks, 1),
            # How late the servers' completions ran behind their due times
            # (epoll's rounded-up millisecond), over this run's requests.
            "live_completion_lateness_mean_s": late_delta / max(requests_served, 1),
        }
        if run.recorder is not None:
            realm_extras["live_traced_ops"] = float(
                stats_after.get("traced_ops", 0) - stats_before.get("traced_ops", 0)
            )
        return run.result(
            events_processed=transport.ops_sent + transport.responses_received,
            requests_served=requests_served,
            realm_extras=realm_extras,
            servers=(),  # the backend tier lives in another process
        )
    finally:
        if done_waiter is not None and not done_waiter.done():
            done_waiter.cancel()
        clock.cancel_all()
        if run is not None:
            run.reset()  # leave the server undegraded for the next run
        await transport.close()


def live_summary(
    results: _t.Mapping[str, _t.Sequence[RunResult]],
    meta: _t.Optional[_t.Mapping[str, _t.Any]] = None,
) -> _t.Dict[str, _t.Any]:
    """The sim-identical summary dict for live runs (plus a ``meta`` block).

    The core shape is produced by the *same*
    :meth:`~repro.harness.results.ComparisonResult.to_dict` the simulation
    uses, so one schema validator covers both realms.
    """
    summary = compare_strategies(results).to_dict()
    if meta is not None:
        summary["meta"] = dict(meta)
    return summary


async def run_live_seeds(
    config: ExperimentConfig, seeds: _t.Sequence[int], **live: _t.Any
) -> _t.List[RunResult]:
    """Sequential multi-seed live runs; ``live`` is forwarded to
    :func:`run_live` (live cells cannot overlap: they would contend for
    the same wall-clock backend)."""
    if not seeds:
        raise ValueError("need at least one seed")
    return [await run_live(config, seed=seed, **live) for seed in seeds]
