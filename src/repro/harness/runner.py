"""Experiment runner: build a cluster for a strategy, feed it, measure it.

This is the integration point of the whole library: given an
:class:`~repro.harness.config.ExperimentConfig` and a seed,
:class:`RunAssembly` assembles the run (workload, placement, clients,
fault script, remediation, tracing) over a clock/transport pair by
resolving the config's strategy through the builder table
(:mod:`repro.harness.builders`).  :func:`run_experiment` binds it to the
simulation's virtual time, the live load generator
(:func:`repro.loadgen.driver.run_live`) binds the *same* assembly to a
wall clock and a TCP transport; either way the workload is replayed and a
:class:`RunResult` with warmup-filtered task latencies and audit counters
comes out.

The runner itself is strategy-agnostic: it never inspects the strategy
name.  Everything strategy-specific -- shared machinery, per-client
dispatch strategies, per-server execution engines, extra audit counters --
comes from the config's :class:`~repro.harness.builders.StrategyBuilder`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

from ..cluster.client import Client
from ..cluster.faults import FaultInjector, FaultPort, SimFaultPort
from ..cluster.messages import TaskCompletion
from ..cluster.network import Network
from ..cluster.remediation import RemediationDriver
from ..metrics.reservoir import ExactSample
from ..metrics.summary import DEFAULT_PERCENTILES, LatencySummary
from ..placement import MutablePlacement
from ..sim.engine import Environment
from ..sim.rng import StreamFactory
from ..workload.soundcloud import PAPER_CLIENTS
from ..workload.tasks import TASK_BLOCK, Task
from .builders import ClusterContext, get_builder
from .config import WARMUP_FRACTION, ExperimentConfig


@dataclasses.dataclass
class RunResult:
    """Outcome of one (config, seed) simulation run."""

    config: ExperimentConfig
    seed: int
    #: Warmup-filtered task latencies (seconds).
    task_latencies: ExactSample
    #: Virtual time at which the last task completed.
    sim_duration: float
    #: Events the kernel processed (micro-benchmark fodder).
    events_processed: int
    #: Tasks measured (after warmup exclusion).
    tasks_measured: int
    #: All tasks completed (including warmup).
    tasks_completed: int
    #: Requests served by the backend tier.
    requests_served: int
    #: Audit counters (congestion signals, grants, gated requests, ...).
    extras: _t.Dict[str, float]
    #: Sampled span trees (only when ``config.trace_sample > 0``).  Not
    #: part of :meth:`to_dict`: the golden byte-equality contract covers
    #: the schedule, and tracing is observation, not schedule.
    traces: _t.Optional[_t.List["TaskTrace"]] = None

    def summary(
        self, percentiles: _t.Sequence[float] = DEFAULT_PERCENTILES
    ) -> LatencySummary:
        return LatencySummary.from_recorder(
            self.config.strategy, self.task_latencies, percentiles
        )

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        """Canonical, JSON-friendly form of one run.

        This is the byte-equality contract the engine differential tests
        compare: two engines are *equivalent* for a (config, seed) pair
        exactly when this structure -- which folds every task latency into
        a SHA-256 digest of the full-precision float reprs, plus the audit
        counters and extras -- matches key for key, byte for byte.
        """
        latencies = self.task_latencies.values()
        digest = hashlib.sha256(
            "\n".join(repr(v) for v in latencies).encode("ascii")
        ).hexdigest()
        return {
            "strategy": self.config.strategy,
            "seed": self.seed,
            "n_tasks": self.config.n_tasks,
            "sim_duration": self.sim_duration,
            "events_processed": self.events_processed,
            "tasks_measured": self.tasks_measured,
            "tasks_completed": self.tasks_completed,
            "requests_served": self.requests_served,
            "task_latency_count": len(latencies),
            "task_latency_digest": digest,
            "extras": {k: self.extras[k] for k in sorted(self.extras)},
        }


class CompletionTracker:
    """Counts completions, applies warmup filtering, signals "all done".

    ``on_done`` is the realm's completion signal (``env.stop``
    in the simulation, ``LiveTransport.finish`` live).
    """

    def __init__(
        self,
        n_tasks: int,
        warmup_tasks: int,
        on_done: _t.Callable[[], _t.Any],
    ) -> None:
        self.n_tasks = n_tasks
        self.warmup_tasks = warmup_tasks
        self.on_done = on_done
        self.task_latencies = ExactSample()
        self.completed = 0
        self.measured = 0
        #: Model time of the latest task completion (the run's duration
        #: once every task is in).
        self.last_completion_at = 0.0

    def on_complete(self, completion: TaskCompletion) -> None:
        self.completed += 1
        self.last_completion_at = completion.completed_at
        if completion.task.task_id >= self.warmup_tasks:
            self.measured += 1
            self.task_latencies.record(completion.latency)
        if self.completed == self.n_tasks:
            self.on_done()


def _fan_out(
    callbacks: _t.Sequence[_t.Callable[[_t.Any], None]]
) -> _t.Optional[_t.Callable[[_t.Any], None]]:
    """One callable for ``callbacks`` (itself when single, None when empty)."""
    if len(callbacks) <= 1:
        return callbacks[0] if callbacks else None

    def fan_out(value: _t.Any) -> None:
        for callback in callbacks:
            callback(value)

    return fan_out


class RunAssembly:
    """One (config, seed) run, minus whatever depends on how time passes.

    Handed a clock and a transport (the :mod:`repro.core.clock` seam), it
    resolves the strategy builder and assembles workload, mutable
    placement, :class:`ClusterContext`, completion tracker, optional trace
    recorder, the composed client hooks, shared machinery and the
    strategy+client pairs; :meth:`arm` then adds the fault injector and
    the remediation driver once the realm has something for them to act
    on, and :meth:`result` folds everything into a :class:`RunResult`.
    :func:`run_experiment` and :func:`repro.loadgen.driver.run_live` keep
    only what is genuinely theirs: building/connecting servers, feeding
    arrivals in virtual vs wall time, and waiting for ``on_done``.

    Construction order matters for byte-identical determinism: shared
    machinery, then clients (strategy before client), then the realm's
    servers, then the fault script, then remediation.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        streams: StreamFactory,
        clock: "Clock",
        transport: "Transport",
        on_done: _t.Callable[[], _t.Any],
    ) -> None:
        self.config = config
        self.streams = streams
        self.clock = clock
        self.builder = get_builder(config.strategy)
        self.workload = config.workload()
        # The mutable wrapper is what lets RebalanceFault windows re-home
        # partitions mid-run; with no rebalance events it is pure delegation.
        self.placement = MutablePlacement(config.cluster.make_placement())
        self.placement.validate()
        self.ctx = ClusterContext(
            config=config,
            env=clock,
            network=transport,
            placement=self.placement,
            service_model=self.workload.service_model,
            streams=streams,
        )
        self.warmup_tasks = int(WARMUP_FRACTION * config.n_tasks)
        self.tracker = CompletionTracker(config.n_tasks, self.warmup_tasks, on_done)
        self.faults: _t.Optional[FaultInjector] = None
        self.remediation: _t.Optional[RemediationDriver] = None

        # Tracing rides the clients' completion and request hooks: it
        # adds no calendar events and draws from no RNG stream (sampling is
        # a pure function of the task id), so schedules -- and therefore
        # goldens -- are identical with or without it, and a live run
        # samples the same tasks as its sim twin.  With sampling off no
        # recorder exists at all.
        self.recorder: _t.Optional["TraceRecorder"] = None
        if config.trace_sample > 0.0:
            from ..trace import TraceRecorder

            self.recorder = TraceRecorder(
                clock, config.trace_sample, self.warmup_tasks
            )

        on_complete: _t.List[_t.Callable[[_t.Any], None]] = []
        if config.remediation != "off":
            # The driver is assembled in arm(), after the strategies exist;
            # completions only start arriving once the feeder runs.
            on_complete.append(
                lambda completion: self.remediation.observe_completion(
                    completion.latency
                )
            )
        request_hook = None
        if self.recorder is not None:
            on_complete.append(self.recorder.on_complete)
            request_hook = self.recorder.observe_request
        on_complete.append(self.tracker.on_complete)
        completion_hook = _fan_out(on_complete)

        self.builder.build_shared(self.ctx)
        self.strategies: _t.List[_t.Any] = []
        self.clients: _t.List[Client] = []
        for client_id in range(PAPER_CLIENTS):
            strategy = self.builder.build_client_strategy(self.ctx, client_id)
            self.strategies.append(strategy)
            self.clients.append(
                Client(
                    clock,
                    client_id=client_id,
                    network=transport,
                    strategy=strategy,
                    on_complete=completion_hook,
                    request_observer=request_hook,
                )
            )

    def arm(
        self,
        fault_port: FaultPort,
        queue_depths: _t.Callable[[], _t.Sequence[float]],
    ) -> None:
        """Attach the realm's fault port and per-server backlog view.

        Builds the (not yet started) fault injector, the remediation
        driver the config asks for, and the task generator; :meth:`feed`
        starts them at the realm's time zero.
        """
        self.faults = FaultInjector(
            self.clock, self.config.fault_schedule, fault_port, self.placement
        )
        if self.config.remediation != "off":
            self.remediation = RemediationDriver(
                self.config, self.clock, self.placement, queue_depths
            )
        self.generator = self.workload.generator(self.streams)

    def feed(self) -> "Feeder":
        """Start the fault script and the remediation tick (model time zero
        is now) and return the arrival feeder, whose first ``step`` the
        realm makes -- directly in the simulation, as a clock callback live."""
        self.faults.start()
        if self.remediation is not None:
            self.remediation.start()
        return Feeder(self.clock, self, self.config.n_tasks)

    def submit(self, task: Task) -> None:
        """Hand one arrived task to its client (the feeders' last step)."""
        if self.remediation is not None:
            self.remediation.observe_arrival()
        self.clients[task.client_id].submit(task)

    def close(self) -> None:
        """Teardown, idempotent: revert still-open fault windows and an open
        remediation boost, then let go of what ties the run into reference cycles --
        pending timers (their callbacks are methods of objects that hold the
        clock), transport handlers (likewise the transport), client <->
        strategy, the builder's shared machinery and the client list the
        completion hooks reach back through -- so a finished run is freed by
        reference count, not whenever the cycle collector next runs.  Call
        after :meth:`result`."""
        if self.faults is not None:
            self.faults.reset()
        if self.remediation is not None:
            self.remediation.reset()
        self.clock.cancel_all()
        self.ctx.network.unregister_all()
        for strategy in self.strategies:
            strategy.bind(None)
        self.builder.release_shared(self.ctx)
        self.clients, self.strategies = [], []

    def result(
        self,
        events_processed: int,
        requests_served: int,
        realm_extras: _t.Mapping[str, float],
        servers: _t.Sequence[_t.Any],
    ) -> RunResult:
        """Fold tracker, builder, fault, remediation, placement and trace
        audit counters into the run's :class:`RunResult`."""
        extras = dict(realm_extras)
        extras.update(self.builder.collect_extras(self.ctx, self.clients, servers))
        extras.update(self.faults.extras())
        if self.remediation is not None:
            extras.update(self.remediation.extras())
        if self.placement.swaps:
            extras["placement_swaps"] = float(self.placement.swaps)
        if self.recorder is not None:
            extras.update(self.recorder.extras())
        tracker = self.tracker
        return RunResult(
            config=self.config,
            seed=self.streams.root_seed,
            task_latencies=tracker.task_latencies,
            sim_duration=tracker.last_completion_at,
            events_processed=events_processed,
            tasks_measured=tracker.measured,
            tasks_completed=tracker.completed,
            requests_served=requests_served,
            extras=extras,
            traces=self.recorder.traces if self.recorder is not None else None,
        )


class Feeder:
    """The open-loop arrival schedule as a self-re-arming clock callback.

    ``step`` submits every task whose *absolute* due time has passed (a late
    wakeup submits its whole burst; deadlines never drift), takes the next
    one and re-arms for it.  A loop that falls behind fires tasks late and
    back-to-back, a silently closed loop: ``lag_*`` say how late (model
    seconds), so saturated runs are detectable in the summary.  The
    simulation is the zero-lag case: its calendar wakes ``step`` exactly
    on the due time.  An object, not a closure (a reference cycle through
    the run).

    Tasks are drawn :data:`~repro.workload.tasks.TASK_BLOCK` at a time,
    back to back, when the drawn ones run out (never past ``n_tasks``): a
    paced process that draws one task per wakeup runs the generator cold,
    at about twice its tight-loop cost.  A task's due time is still fixed
    when it is taken, right after its predecessor's submit, so the flash
    crowds' ``arrival_scale`` compresses the same gaps.  The block lives
    here, not in the generator, because only the feeder knows the run's
    task count, so a refill never draws past it.
    """

    def __init__(self, clock: "Clock", run: RunAssembly, n_tasks: int) -> None:
        self.clock, self.run, self.left = clock, run, n_tasks
        self.drawn: _t.List[_t.Any] = []  # drawn, not yet taken; next last
        self.task: _t.Any = None  # taken, not yet due
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
            if not self.drawn:
                if not self.left:
                    return
                count = min(TASK_BLOCK, self.left)
                self.left -= count
                draw = run.generator.next_task
                self.drawn = [draw() for _ in range(count)]
                self.drawn.reverse()
            task = self.task = self.drawn.pop()
            # Flash-crowd faults compress inter-arrival gaps; at scale 1
            # the due times are exactly the trace's arrival times.
            gap = task.arrival_time - self.last_arrival
            self.last_arrival = task.arrival_time
            self.next_at += gap / run.faults.arrival_scale()


def run_experiment(config: ExperimentConfig, seed: int = 1) -> RunResult:
    """Simulate one (config, seed) pair end to end."""
    streams = StreamFactory(seed)
    env = Environment()
    network = Network(
        env,
        latency=config.cluster.make_latency_model(),
        stream=streams.stream("network.latency"),
    )
    run = RunAssembly(config, streams, env, network, env.stop)
    try:
        servers = [
            run.builder.build_server(run.ctx, server_id)
            for server_id in range(config.cluster.n_servers)
        ]
        run.arm(
            SimFaultPort(servers, network),
            # Backlog = queued + in service: pacing strategies keep queues
            # near zero while saturating cores, so queues alone miss heat.
            lambda: [s.queue_length() + s.in_service for s in servers],
        )
        run.feed().step()
        env.run()

        # -- audit: conservation laws ---------------------------------------
        total_completed = sum(c.tasks_completed for c in run.clients)
        if total_completed != config.n_tasks:
            raise RuntimeError(
                f"lost tasks: {total_completed} completed of {config.n_tasks}"
            )
        # Hedging may leave duplicate copies in flight when the last task
        # completes; every *non-hedged* strategy must conserve exactly
        # (checked against the generated op count by the integration tests).
        return run.result(
            events_processed=env.events_processed,
            requests_served=sum(s.completed for s in servers),
            realm_extras={
                "mean_server_utilization": sum(s.utilization for s in servers)
                / len(servers),
            },
            servers=servers,
        )
    finally:
        run.close()


if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.clock import Clock, Transport
    from ..trace import TaskTrace, TraceRecorder
