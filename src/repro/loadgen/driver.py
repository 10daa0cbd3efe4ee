"""The live load generator: scenario replay against a running service.

:func:`run_live` is the wall-clock sibling of
:func:`repro.harness.runner.run_experiment`: both hand the same
:class:`~repro.harness.runner.RunAssembly` (strategy stack, workload,
tracker, fault injector, remediation, tracing) a clock and a transport and
get the same :class:`~repro.harness.runner.RunResult` out -- except here
requests travel over TCP to live asyncio workers instead of through the
event calendar.  A run has the simulation's four verbs -- open (connect,
validate the cluster shape, assemble), feed (the shared
:class:`~repro.harness.runner.Feeder`, here a clock callback whose
``schedule_lag`` is the honesty metric), wait (the transport's one outcome
future, under the wall timeout), close -- and what this module owns is
only what wall time forces: server stats deltas.  The shared fault
injector's frames go to the transport's ``admin`` fan-out as they are.

Because the output is a genuine ``RunResult``, everything downstream --
:func:`~repro.harness.results.compare_strategies`, the analysis tables,
the summary JSON schema -- is *shared* with the simulation rather than
imitated, which is what the sim<->live differential harness
(:mod:`repro.loadgen.compare`) relies on.
"""

from __future__ import annotations

import os
import time
import typing as _t

from ..harness.builders import ModelBuilder, get_builder
from ..harness.config import ExperimentConfig
from ..harness.results import compare_strategies
from ..harness.runner import RunAssembly, RunResult
from ..sim.rng import StreamFactory
from .transport import Endpoint, LiveTransport, LiveTransportError


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


_Stats = _t.Mapping[str, _t.Any]


def _grew(before: _Stats, after: _Stats, key: str) -> float:
    """How much the additive counter ``key`` grew between two stats frames."""
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _workers_grew(before: _Stats, after: _Stats, key: str) -> float:
    """:func:`_grew` of a per-worker counter, summed over the workers."""
    return sum(
        _grew(b, a, key)
        for b, a in zip(before.get("workers", []), after.get("workers", []))
    )


async def run_live(
    config: ExperimentConfig,
    endpoints: _t.Sequence[Endpoint],
    seed: int = 1,
    wall_timeout: _t.Optional[float] = None,
    pool: int = 1,
) -> RunResult:
    """Drive one (config, seed) load-generation run against a live cluster.

    ``endpoints`` lists every server process of the cluster, one
    connection each.  ``pool`` accepts only 1: it stays a keyword only
    because ``bench/workloads.py`` passes it, and goes with the next
    change to the benchmark.
    """
    if isinstance(get_builder(config.strategy), ModelBuilder):
        raise ValueError(
            f"strategy {config.strategy!r} is the unrealizable global-queue "
            "model; it has no live realization (that is the paper's point)"
        )
    if pool != 1:
        raise ValueError(f"pool {pool!r}: every endpoint has one connection")
    transport = await LiveTransport.connect(endpoints)
    clock = transport.clock
    run: _t.Optional[RunAssembly] = None
    try:
        _validate_shape(config, transport.ack)
        stats_before = await transport.fetch_stats()
        run = RunAssembly(
            config, StreamFactory(seed), clock, transport, transport.finish
        )
        if run.recorder is not None:
            # The transport hook propagates the trace context over the
            # wire per sampled op.
            transport.trace_sampler = run.recorder.wire_trace_id
        # The live substrate's backlog view is the piggybacked feedback
        # the transport already receives on every result frame.
        run.arm(transport.admin, transport.backlog_depths)
        # Close the cluster-wide observability loop: stream this load
        # generator's client-side BusSnapshots to every endpoint over the
        # admin plane, so a cluster's `stats` frame (`repro watch`, the
        # Prometheus exporter) carries windowed client-side percentiles
        # for as long as this run's connections live.
        if run.remediation is not None:
            reporter = f"loadgen-{os.getpid()}"
            run.remediation.on_snapshot = lambda snapshot: transport.report_bus(
                reporter, snapshot.to_dict()
            )
        if wall_timeout is None:
            expected_model_s = config.n_tasks / run.workload.task_rate
            wall_timeout = max(60.0, 12.0 * expected_model_s * clock.scale + 30.0)

        wall_start = time.monotonic()
        # Model time zero = first arrival: latencies are measured against
        # the trace's intended arrival times, exactly like the simulation.
        clock.rebase()
        feeder = run.feed()
        clock.call_later(0.0, feeder.step)
        # A background crash surfaces here at once as the real exception
        # (the sim raises the same ones synchronously from env.run), not as
        # a mysterious timeout minutes later.
        await transport.wait(
            wall_timeout,
            lambda: f"{run.tracker.completed}/{config.n_tasks} tasks completed, "
            f"{transport.pending_ops} ops in flight",
        )
        wall_duration = time.monotonic() - wall_start
        stats_after = await transport.fetch_stats()

        requests_served = int(_grew(stats_before, stats_after, "completed"))
        uptime = _grew(stats_before, stats_after, "uptime_model_s")
        cores_total = config.cluster.n_servers * config.cluster.cores_per_server
        realm_extras: _t.Dict[str, float] = {
            "mean_server_utilization": (
                _workers_grew(stats_before, stats_after, "busy_time_s")
                / (uptime * cores_total)
                if uptime > 0
                else 0.0
            ),
            "live_time_scale": clock.scale,
            "live_wall_duration_s": wall_duration,
            "live_requests_rejected": _grew(stats_before, stats_after, "rejected"),
            "live_congestion_frames": float(transport.congestion_signals),
            "live_protocol": float(transport.ack["proto"]),
            "live_links": float(len(transport.links)),
            "schedule_lag_max_s": feeder.lag_max,
            "schedule_lag_mean_s": feeder.lag_total / max(config.n_tasks, 1),
            # How late the servers' completions ran behind their due times
            # (epoll's rounded-up millisecond), over this run's requests.
            "live_completion_lateness_mean_s": _workers_grew(
                stats_before, stats_after, "lateness_total_s"
            )
            / max(requests_served, 1),
        }
        if run.recorder is not None:
            realm_extras["live_traced_ops"] = _grew(
                stats_before, stats_after, "traced_ops"
            )
        return run.result(
            events_processed=transport.ops_sent + transport.responses_received,
            requests_served=requests_served,
            realm_extras=realm_extras,
            servers=(),  # the backend tier lives in another process
        )
    finally:
        if run is not None:
            run.close()  # leave the server undegraded for the next run
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
