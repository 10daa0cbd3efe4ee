"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``        run one experiment (optionally a named scenario)
``sweep``      run a (value x strategy x seed) grid, optionally in parallel
``record``     write ``results/`` artifacts and check their claims
``serve``      start the live asyncio multiget KV service
``loadgen``    drive a live service with a scenario's workload + faults
``watch``      poll a live cluster's metrics mid-run (admin plane; ``--json``)
``firehose``   saturate a live service (wire-path throughput ceiling)
``compare``    sim vs live differential for one scenario
``trace``      span-tree tail attribution (see below)

``run`` and ``loadgen`` accept ``--trace-sample`` / ``--trace-out`` to
record span trees for a deterministic sample of multigets; ``trace
attribution`` / ``trace slowest`` / ``trace diff`` analyse the resulting
JSONL artifacts (docs/observability.md has the full workflow).
``ring``       inspect / perturb the replica-placement ring
``strategies`` list the strategy builders
``scenarios``  list the workload scenarios (``--json`` for tools)
``docs-cli``   render (or verify) ``docs/cli.md`` from this argparse tree

Grid commands (``run`` with several seeds, ``sweep``, ``record``) accept
``--jobs N`` to fan independent simulation runs over ``N`` worker
processes; results are identical to serial runs (see
``repro.harness.parallel``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing as _t
from pathlib import Path

from .analysis import render_table
from .cluster.faults import NO_FAULTS, FaultSchedule, SlowdownFault
from .harness import (
    ExperimentConfig,
    FIGURE2_STRATEGIES,
    KNOWN_STRATEGIES,
    compare_strategies,
    get_builder,
    run_seeds,
    sweep,
)
from .harness.config import WARMUP_FRACTION
from .metrics import PAPER_PERCENTILES
from .scenarios import SCENARIOS, get_scenario


class _Exit(Exception):
    """A command that cannot go on: ``main`` prints the message to stderr
    and returns ``code`` (2 = bad invocation, 1 = the run itself failed)."""

    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _require_positive(args: argparse.Namespace, *flags: str) -> None:
    """Usage error unless every named flag that was given is above 0
    (a count: at least 1)."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value <= 0:
            bound = "at least 1" if isinstance(value, int) else "positive"
            raise _Exit(f"--{flag.replace('_', '-')} must be {bound}")


def _check_port(port: int, bound: bool = False) -> int:
    """``port`` if it is a TCP port to dial (1..65535) or, with ``bound``,
    to listen on (0 also: ephemeral); ValueError otherwise."""
    low = 0 if bound else 1
    if not low <= port <= 65535:
        raise ValueError(f"port {port} is outside {low}..65535")
    return port


def _add_parallel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan runs over N worker processes (0 = all cores; "
                        "default serial)")


def _save_json(path: _t.Optional[str], payload: _t.Any, what: str = "raw results") -> None:
    """``--out PATH``: write one JSON document and say where it went."""
    if path:
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"{what} -> {path}")


def _jobs_from(args: argparse.Namespace) -> int:
    """``--jobs N``: no ``--jobs`` is one worker, 0 all cores."""
    if args.jobs is None:
        return 1
    if args.jobs < 0:
        raise _Exit("--jobs must be 0 (all cores) or more")
    return args.jobs


def _add_remediate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--remediate", default=None,
                   choices=("off", "monitor", "slo"),
                   help="streamed-metrics mode: 'monitor' samples bus "
                        "snapshots and counts SLO breach windows; 'slo' also "
                        "boosts the hottest partition with extra replicas "
                        "(see docs/observability.md)")
    p.add_argument("--slo-p99-ms", type=float, default=None, metavar="MS",
                   help="windowed-p99 target (model ms) for the SLO breach "
                        "detector (required with --remediate slo)")


def _given(args: argparse.Namespace, **fields: str) -> _t.Dict[str, _t.Any]:
    """``{field: value}`` for each ``field="flag"`` the user actually passed."""
    return {
        field: getattr(args, flag)
        for field, flag in fields.items()
        if getattr(args, flag) is not None
    }


def _remediation_overrides(args: argparse.Namespace) -> _t.Dict[str, _t.Any]:
    return _given(args, remediation="remediate", slo_p99_ms="slo_p99_ms")


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-sample", type=float, default=None, metavar="RATE",
                   help="record span trees for this fraction of post-warmup "
                        "multigets (deterministic per task id; the schedule "
                        "is unchanged)")
    p.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                   help="write the sampled span trees as a JSONL trace "
                        "artifact for `repro trace attribution` (implies "
                        "--trace-sample 1.0 unless given)")


def _trace_overrides(args: argparse.Namespace) -> _t.Dict[str, _t.Any]:
    if args.trace_out is not None and args.trace_sample == 0:
        raise _Exit("--trace-out needs a --trace-sample above 0")
    overrides: _t.Dict[str, _t.Any] = {}
    if args.trace_sample is not None:
        overrides["trace_sample"] = args.trace_sample
    elif args.trace_out is not None:
        overrides["trace_sample"] = 1.0
    return overrides


def _config_from(
    args: argparse.Namespace, **overrides: _t.Any
) -> ExperimentConfig:
    """The ``--scenario/--strategy/--tasks`` config of a run or loadgen
    invocation."""
    try:
        if args.scenario is not None:
            return get_scenario(args.scenario).build_config(
                strategy=args.strategy, n_tasks=args.tasks, **overrides
            )
        return ExperimentConfig(
            strategy=args.strategy, n_tasks=args.tasks, **overrides
        )
    except ValueError as exc:
        raise _Exit(f"bad configuration: {exc}") from exc


def _write_trace_artifact(
    path: str,
    config: ExperimentConfig,
    scenario: str,
    realm: str,
    seeds: _t.Sequence[int],
    results: _t.Sequence[_t.Any],
) -> None:
    """Append one meta + trace block per seed to a JSONL artifact."""
    from .trace import write_traces

    total = 0
    for index, (seed, result) in enumerate(zip(seeds, results)):
        total += write_traces(
            path,
            result.traces,
            meta={
                "strategy": config.strategy,
                "scenario": scenario,
                "seed": seed,
                "realm": realm,
                "sample": config.trace_sample,
                "n_tasks": config.n_tasks,
                "warmup_tasks": int(WARMUP_FRACTION * config.n_tasks),
            },
            append=index > 0,
        )
    print(f"traces: {total} span tree(s) -> {path}")


def _add_run(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("run", help="run a single experiment")
    p.add_argument("--strategy", default="unifincr-credits", choices=KNOWN_STRATEGIES)
    p.add_argument("--scenario", default=None, choices=SCENARIOS,
                   help="run a named scenario (workload + fault schedule)")
    p.add_argument("--tasks", type=int, default=5000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1, metavar="K",
                   help="repeat under K consecutive seeds (starting at --seed)")
    p.add_argument("--load", type=float, default=None,
                   help="offered load as a fraction of capacity")
    p.add_argument("--fanout", type=float, default=None,
                   help="mean requests per task")
    p.add_argument("--slow-server", type=int, default=None,
                   help="inject a 3x slowdown on this server id")
    _add_remediate_flags(p)
    _add_trace_flags(p)
    _add_parallel_flags(p)
    p.set_defaults(func=_cmd_run)


def _cmd_run(args: argparse.Namespace) -> int:
    _require_positive(args, "seeds")
    jobs = _jobs_from(args)
    overrides = _given(args, load="load", mean_fanout="fanout")
    if args.slow_server is not None:
        scripted = (
            get_scenario(args.scenario).faults
            if args.scenario is not None
            else NO_FAULTS
        )
        slow = SlowdownFault(
            servers=(args.slow_server,), factor=3.0, start=0.25, duration=0.5
        )
        overrides["fault_schedule"] = scripted + FaultSchedule((slow,))
    overrides.update(_remediation_overrides(args))
    overrides.update(_trace_overrides(args))
    config = _config_from(args, **overrides)
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    which = f"seeds {seeds[0]}..{seeds[-1]}" if len(seeds) > 1 else f"seed {args.seed}"
    print(f"running {config.describe()} ({which})")
    for line in config.fault_schedule.describe():
        print(f"  fault: {line}")
    # One grid path whatever the seed count; one cell runs in-process.
    runs = run_seeds(config, seeds, jobs)
    if len(seeds) > 1:
        comparison = compare_strategies({config.strategy: runs})
        print(comparison.summary_of(config.strategy))
        spread = comparison.strategies[config.strategy].percentile_spread(99.0)
        print(f"p99 across seeds: {spread[0] * 1e3:.3f}..{spread[1] * 1e3:.3f} ms")
    else:
        result = runs[0]
        print(result.summary((50.0, 90.0, 95.0, 99.0, 99.9)))
        rows = [{"metric": k, "value": v} for k, v in sorted(result.extras.items())]
        rows.append({"metric": "events_processed", "value": result.events_processed})
        rows.append({"metric": "sim_duration_s", "value": result.sim_duration})
        print(render_table(rows))
    if args.trace_out is not None:
        _write_trace_artifact(
            args.trace_out, config, args.scenario or "custom", "sim", seeds, runs
        )
    return 0


def _parse_sweep_value(raw: str) -> _t.Any:
    """Best-effort literal: int, then float, else the bare string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _add_sweep(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "sweep", help="run a (value x strategy x seed) grid"
    )
    p.add_argument("--parameter", required=True,
                   help="config field to vary (dotted paths reach nested "
                        "specs, e.g. cluster.one_way_latency)")
    p.add_argument("--values", required=True,
                   help="comma-separated values for the swept parameter")
    p.add_argument("--strategies", default="c3,unifincr-credits",
                   help="comma-separated strategy names")
    p.add_argument("--seeds", type=int, default=1, metavar="K",
                   help="seed grid 1..K per cell")
    p.add_argument("--scenario", default=None, choices=SCENARIOS,
                   help="sweep over a named scenario instead of the default config")
    p.add_argument("--tasks", type=int, default=5000)
    p.add_argument("--percentile", type=float, default=99.0,
                   choices=PAPER_PERCENTILES,
                   help="percentile column for the rendered table")
    p.add_argument("--out", type=str, default=None, help="raw JSON output path")
    _add_parallel_flags(p)
    p.set_defaults(func=_cmd_sweep)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require_positive(args, "seeds", "tasks")
    values = [_parse_sweep_value(v) for v in args.values.split(",") if v]
    strategies = tuple(s for s in args.strategies.split(",") if s)
    jobs = _jobs_from(args)
    cells = len(values) * len(strategies) * args.seeds
    print(
        f"sweeping {args.parameter} over {values}: {cells} cells "
        f"({len(strategies)} strategies x {args.seeds} seeds), jobs={jobs}"
    )
    try:
        # Every cell's config is built and validated before the first run.
        result = sweep(
            args.scenario or ExperimentConfig(n_tasks=args.tasks),
            parameter=args.parameter,
            values=values,
            strategies=strategies,
            seeds=tuple(range(1, args.seeds + 1)),
            n_tasks=args.tasks if args.scenario else None,
            jobs=jobs,
        )
    except ValueError as exc:
        raise _Exit(f"bad configuration: {exc}") from exc
    print(result.render(args.percentile))
    _save_json(args.out, result.to_dict())
    return 0


def _add_record(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "record",
        help="write results/ artifacts and check their claims",
        description="Record each named artifact (default: all, in the "
                    "order of docs/results.md) into results/NAME.{txt,json} "
                    "under the current directory, then check its claims; "
                    "exit 1 naming every claim that failed.",
    )
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="results/ stems to record (default: all)")
    p.add_argument("--tasks", type=int, default=12_000,
                   help="task budget each artifact derives its grid from "
                        "(paper: 500000)")
    p.add_argument("--seeds", type=int, default=3,
                   help="seeds 1..K (paper: 6)")
    _add_parallel_flags(p)
    p.set_defaults(func=_cmd_record)


def _cmd_record(args: argparse.Namespace) -> int:
    from .artifacts import ARTIFACTS, ClaimFailed

    _require_positive(args, "tasks", "seeds")
    jobs = _jobs_from(args)
    unknown = [name for name in args.names if name not in ARTIFACTS]
    if unknown:
        raise _Exit(
            f"unknown artifact {', '.join(unknown)}; choose from "
            + ", ".join(ARTIFACTS)
        )
    seeds = tuple(range(1, args.seeds + 1))
    failed = []
    for name in dict.fromkeys(args.names or ARTIFACTS):
        recording = ARTIFACTS[name](args.tasks, seeds, jobs)
        print(recording.text)
        recording.save(Path("results"), name)
        print(f"{name} -> results/{name}.{{txt,json}}\n")
        try:
            recording.check()
        except ClaimFailed as exc:
            failed.append(f"{name}: {exc}")
    if failed:
        raise _Exit("claims failed:\n" + "\n".join(failed), code=1)
    return 0


def _add_trace(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("trace", help="analyse span-trace artifacts")
    sub = p.add_subparsers(dest="trace_command", required=True)

    attr = sub.add_parser(
        "attribution",
        help="critical-path tail attribution per (strategy, scenario)",
        description="Read JSONL span-trace artifacts (from `repro run "
                    "--trace-out` / `repro loadgen --trace-out`) and print "
                    "one tail-attribution table per (strategy, scenario) "
                    "group: each critical-path segment kind's share of the "
                    "summed tail latency, with queue_wait broken down by "
                    "partition. Shares always sum to 100%.",
    )
    attr.add_argument("files", nargs="+", help="JSONL trace artifacts")
    attr.add_argument("--tail", type=float, default=99.0, metavar="P",
                      help="tail percentile defining the analysed set")
    attr.add_argument("--json", action="store_true",
                      help="machine-readable output (one JSON array)")
    attr.set_defaults(func=_cmd_trace_attribution)

    slow = sub.add_parser(
        "slowest",
        help="exemplar dump of the K slowest traces per group",
    )
    slow.add_argument("files", nargs="+", help="JSONL trace artifacts")
    slow.add_argument("-k", type=int, default=5, dest="k", metavar="K",
                      help="traces per group, slowest first")
    slow.set_defaults(func=_cmd_trace_slowest)

    diff = sub.add_parser(
        "diff",
        help="compare two groups' tail attributions side by side",
        description="Diff the tail attribution of two (strategy, scenario) "
                    "groups. With exactly two groups across the given "
                    "files, they are compared in sorted order; otherwise "
                    "pick them with --a/--b (STRATEGY or "
                    "STRATEGY/SCENARIO).",
    )
    diff.add_argument("files", nargs="+", help="JSONL trace artifacts")
    diff.add_argument("--tail", type=float, default=99.0, metavar="P",
                      help="tail percentile defining the analysed sets")
    diff.add_argument("--a", default=None, metavar="SEL",
                      help="group A selector: STRATEGY or STRATEGY/SCENARIO")
    diff.add_argument("--b", default=None, metavar="SEL",
                      help="group B selector: STRATEGY or STRATEGY/SCENARIO")
    diff.set_defaults(func=_cmd_trace_diff)


def _load_trace_groups(files: _t.Sequence[str]) -> _t.Any:
    """Load span-trace artifacts (a bad or empty one is a usage error)."""
    from .trace import load_traces

    try:
        groups = load_traces(files)
    except (OSError, ValueError) as exc:
        raise _Exit(f"bad trace artifact: {exc}") from exc
    if not groups:
        raise _Exit("no trace groups in the given files")
    return groups


def _select_trace_group(groups: _t.Any, selector: str) -> _t.Any:
    """Resolve a STRATEGY or STRATEGY/SCENARIO selector to one group."""
    if "/" in selector:
        strategy, _, scenario = selector.partition("/")
        matches = [
            g for g in groups
            if g.strategy == strategy and g.scenario == scenario
        ]
    else:
        matches = [g for g in groups if g.strategy == selector]
    if len(matches) != 1:
        known = ", ".join(f"{g.strategy}/{g.scenario} ({g.realm})" for g in groups)
        raise ValueError(
            f"selector {selector!r} matches {len(matches)} group(s); "
            f"available: {known}"
        )
    return matches[0]


def _cmd_trace_attribution(args: argparse.Namespace) -> int:
    from .trace import attribution, render_attribution

    groups = _load_trace_groups(args.files)
    try:
        results = [attribution(g, tail=args.tail) for g in groups]
    except ValueError as exc:
        raise _Exit(str(exc)) from exc
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2))
        return 0
    for index, result in enumerate(results):
        if index:
            print()
        print(render_attribution(result))
    return 0


def _cmd_trace_slowest(args: argparse.Namespace) -> int:
    from .trace import render_slowest, slowest

    groups = _load_trace_groups(args.files)
    if args.k < 1:
        raise _Exit("-k must be at least 1")
    for index, group in enumerate(groups):
        if index:
            print()
        print(render_slowest(group, slowest(group, k=args.k)))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .trace import attribution, render_diff

    groups = _load_trace_groups(args.files)
    if (args.a is None) != (args.b is None):
        raise _Exit("--a and --b must be given together")
    try:
        if args.a is not None:
            group_a = _select_trace_group(groups, args.a)
            group_b = _select_trace_group(groups, args.b)
        elif len(groups) == 2:
            group_a, group_b = groups
        else:
            raise _Exit(
                f"found {len(groups)} trace group(s); diff needs exactly "
                "two (or explicit --a/--b selectors)"
            )
        if group_a.realm != group_b.realm:
            print(f"realms: A={group_a.realm}  B={group_b.realm}")
        print(
            render_diff(
                attribution(group_a, tail=args.tail),
                attribution(group_b, tail=args.tail),
            )
        )
    except ValueError as exc:
        raise _Exit(str(exc)) from exc
    return 0


#: The connection flags ``loadgen``, ``watch`` and ``firehose`` share, as
#: argparse keywords; a command takes the ones it names, in its own order
#: (docs/cli.md lists flags in declaration order).
_WIRE_FLAGS: _t.Dict[str, _t.Dict[str, _t.Any]] = {
    "host": dict(default=None),
    "port": dict(type=int, default=None),
    "endpoints": dict(default=None, metavar="H:P,H:P,...",
                      help="comma-separated endpoints of a multi-process "
                           "cluster (overrides --host/--port)"),
}


def _add_wire_flags(
    p: argparse.ArgumentParser, *flags: str, **help_text: str
) -> None:
    """Declare the named connection flags; ``help_text`` rewords one."""
    for flag in flags:
        spec = dict(_WIRE_FLAGS[flag])
        if flag in help_text:
            spec["help"] = help_text[flag]
        p.add_argument(f"--{flag}", **spec)


def _endpoints_from(args: argparse.Namespace) -> _t.List[_t.Tuple[str, int]]:
    """The cluster a live command addresses: ``--endpoints`` if given, else
    ``--host``/``--port`` (where the command has them) over the serve
    defaults."""
    from .serve import DEFAULT_HOST, DEFAULT_PORT

    if args.endpoints is not None:
        try:
            return _parse_endpoints(args.endpoints)
        except ValueError as exc:
            raise _Exit(f"bad --endpoints: {exc}") from exc
    host = getattr(args, "host", None)
    port = getattr(args, "port", None)
    try:
        port = _check_port(port) if port is not None else DEFAULT_PORT
    except ValueError as exc:
        raise _Exit(f"bad --port: {exc}") from exc
    return [(host if host is not None else DEFAULT_HOST, port)]


def _run_live(command: str, coro: _t.Awaitable[_t.Any]) -> _t.Any:
    """``asyncio.run`` a live command; a transport failure is exit 1."""
    import asyncio

    from .loadgen import LiveTransportError

    try:
        return asyncio.run(coro)
    except (ConnectionError, OSError, LiveTransportError) as exc:
        raise _Exit(f"{command} failed: {exc}", code=1) from exc


def _add_serve(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "serve", help="start the live asyncio multiget KV service"
    )
    p.add_argument("--scenario", default="steady-state", choices=SCENARIOS,
                   help="cluster shape + service calibration to serve")
    p.add_argument("--host", default=None, help="bind address (default loopback)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (0 = ephemeral; default 7411; with --procs N, "
                        "process i listens on port+i)")
    p.add_argument("--procs", type=int, default=1, metavar="N",
                   help="fork N server processes, each hosting a contiguous "
                        "worker group on its own port")
    p.add_argument("--time-scale", type=float, default=None, metavar="S",
                   help="wall seconds per model second (default 25)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for the per-worker response-jitter streams")
    p.add_argument("--metrics-port", type=int, default=None, metavar="P",
                   help="export Prometheus text over HTTP on this port "
                        "(0 = ephemeral; with --procs N, process i exports "
                        "on P+i)")
    p.set_defaults(func=_cmd_serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        DEFAULT_TIME_SCALE,
        ServeSupervisor,
        run_server,
    )

    _require_positive(args, "procs", "time_scale")
    config = get_scenario(args.scenario).build_config()
    time_scale = args.time_scale if args.time_scale is not None else DEFAULT_TIME_SCALE
    host = args.host if args.host is not None else DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    for flag, base in (("port", port), ("metrics-port", args.metrics_port)):
        if base is None:
            continue
        try:
            _check_port(base, bound=True)
            if base:  # process i of --procs N binds base + i
                _check_port(base + args.procs - 1, bound=True)
        except ValueError as exc:
            raise _Exit(f"bad --{flag}: {exc}") from exc

    if args.procs > 1:
        import signal
        import time as _time

        supervisor = ServeSupervisor(
            config,
            procs=args.procs,
            time_scale=time_scale,
            seed=args.seed,
            host=host,
            base_port=port,
            metrics_base_port=args.metrics_port,
        )
        try:
            endpoints = supervisor.start()
        except (ValueError, RuntimeError) as exc:
            raise _Exit(f"serve failed: {exc}", code=1) from exc
        print(
            f"serving scenario {args.scenario!r} across {args.procs} "
            f"processes (time scale {time_scale:g}x):",
            flush=True,
        )
        for (endpoint_host, endpoint_port), group, metrics_port in zip(
            endpoints, supervisor.groups, supervisor.metrics_ports
        ):
            metrics_note = (
                f" metrics http://{endpoint_host}:{metrics_port}/"
                if metrics_port is not None
                else ""
            )
            print(
                f"  {endpoint_host}:{endpoint_port} "
                f"workers {group[0]}..{group[-1]}{metrics_note}",
                flush=True,
            )
        # SIGTERM (``kill <pid>``) takes the Ctrl-C path, so the children
        # are stopped too; installed after the fork, so they keep the
        # default action that ``stop()`` relies on.
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            while supervisor.alive:
                _time.sleep(0.5)
            raise _Exit("a server process exited; shutting down", code=1)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            supervisor.stop()
            signal.signal(signal.SIGTERM, previous)
        return 0

    def ready(server) -> None:
        metrics_note = (
            f", metrics http://{server.host}:{server.metrics_port}/"
            if server.metrics_port is not None
            else ""
        )
        print(
            f"serving scenario {args.scenario!r} on "
            f"{server.host}:{server.port} "
            f"({server.cluster.n_servers} workers x "
            f"{server.cluster.cores_per_server} cores, "
            f"time scale {time_scale:g}x{metrics_note})",
            flush=True,
        )

    try:
        asyncio.run(
            run_server(
                config,
                time_scale=time_scale,
                seed=args.seed,
                host=host,
                port=port,
                ready=ready,
                metrics_port=args.metrics_port,
            )
        )
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _add_loadgen(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "loadgen", help="drive a live service with a scenario workload"
    )
    p.add_argument("--scenario", default="steady-state", choices=SCENARIOS)
    p.add_argument("--strategy", default="unifincr-credits", choices=KNOWN_STRATEGIES)
    p.add_argument("--tasks", type=int, default=5000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1, metavar="K",
                   help="repeat under K consecutive seeds (starting at --seed)")
    _add_wire_flags(p, "host", "port", "endpoints")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock safety timeout per run (seconds)")
    p.add_argument("--out", type=str, default=None,
                   help="write the summary JSON (sim-identical schema) here")
    _add_remediate_flags(p)
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_loadgen)


def _parse_endpoints(raw: str) -> _t.List[_t.Tuple[str, int]]:
    """``host:port,host:port`` -> endpoint tuples (ValueError on garbage)."""
    endpoints = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, sep, port = chunk.rpartition(":")
        if not sep or not host:
            raise ValueError(f"bad endpoint {chunk!r} (expected host:port)")
        endpoints.append((host, _check_port(int(port))))
    if not endpoints:
        raise ValueError("empty endpoint list")
    return endpoints


def _reject_model_strategies(strategies: _t.Iterable[str]) -> None:
    """Clean CLI message for strategies with no live realization."""
    from .harness.builders import ModelBuilder

    for name in strategies:
        if isinstance(get_builder(name), ModelBuilder):
            raise _Exit(
                f"strategy {name!r} is the unrealizable global-queue model; "
                "it cannot run live (pick a -credits realization or a "
                "baseline)"
            )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import live_summary, run_live_seeds

    _reject_model_strategies((args.strategy,))
    _require_positive(args, "seeds", "timeout")
    config = _config_from(
        args, **_remediation_overrides(args), **_trace_overrides(args)
    )
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    endpoints = _endpoints_from(args)
    where = ", ".join(f"{h}:{p}" for h, p in endpoints)
    print(
        f"loadgen: {config.describe()} (seeds {list(seeds)}) -> {where}"
    )
    for line in config.fault_schedule.describe():
        print(f"  fault: {line}")
    results = _run_live(
        "loadgen",
        run_live_seeds(
            config,
            seeds,
            endpoints=endpoints,
            wall_timeout=args.timeout,
        ),
    )
    for result in results:
        print(result.summary((50.0, 90.0, 95.0, 99.0, 99.9)))
        if config.remediation != "off":
            print(
                f"  SLO: {result.extras.get('slo_breach_windows', 0):.0f} "
                f"breach window(s), "
                f"{result.extras.get('remediation_actions', 0):.0f} "
                f"remediation action(s), "
                f"{result.extras.get('bus_snapshots', 0):.0f} bus snapshot(s)"
            )
    total = sum(r.tasks_completed for r in results)
    wall = sum(r.extras.get("live_wall_duration_s", 0.0) for r in results)
    print(f"completed {total} multigets in {wall:.1f}s wall "
          f"(time scale {results[0].extras['live_time_scale']:g}x)")
    lag_mean = max(r.extras.get("schedule_lag_mean_s", 0.0) for r in results)
    lag_max = max(r.extras.get("schedule_lag_max_s", 0.0) for r in results)
    print(
        f"open-loop schedule lag: mean {lag_mean * 1e3:.3f} ms, "
        f"max {lag_max * 1e3:.3f} ms (model time; large values mean the "
        f"generator fell behind the arrival schedule)"
    )
    summary = live_summary(
        {config.strategy: results},
        meta={
            "realm": "live",
            "scenario": args.scenario,
            "n_tasks": args.tasks,
            "time_scale": results[0].extras["live_time_scale"],
            "wall_duration_s": wall,
            "protocol": results[0].extras["live_protocol"],
            "endpoints": len(endpoints),
            "schedule_lag_mean_s": lag_mean,
            "schedule_lag_max_s": lag_max,
        },
    )
    _save_json(args.out, summary, "summary")
    if args.trace_out is not None:
        _write_trace_artifact(
            args.trace_out, config, args.scenario, "live", seeds, results,
        )
    return 0


def _add_watch(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "watch",
        help="poll a live cluster's metrics over the admin plane",
        description="Connect to a running `repro serve` cluster and poll "
                    "its metrics mid-run: one compact line per interval "
                    "(completed ops, ops/s, per-worker backlog), one JSON "
                    "object per poll with --json, or the raw Prometheus "
                    "exposition text with --prometheus -- the same page "
                    "`repro serve --metrics-port` exports over HTTP. When "
                    "a load generator streams its client-side metrics bus "
                    "to the cluster (`repro loadgen --remediate ...`), the "
                    "poll also reports cluster-wide client-side windowed "
                    "p50/p99. Stops after --count polls or on Ctrl-C.",
    )
    _add_wire_flags(p, "host", "port", "endpoints")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="wall seconds between polls")
    p.add_argument("--count", type=int, default=None, metavar="N",
                   help="stop after N polls (default: until interrupted)")
    p.add_argument("--prometheus", action="store_true",
                   help="dump Prometheus text each poll instead of the "
                        "compact line")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON object per poll instead of the "
                        "compact line")
    p.set_defaults(func=_cmd_watch)


def _combine_client_bus(
    snapshots: _t.Mapping[str, _t.Mapping[str, _t.Any]],
) -> _t.Optional[_t.Dict[str, _t.Any]]:
    """Fold per-reporter client-bus snapshots into one cluster-wide view.

    Counts and rates add across reporters.  Percentiles cannot be merged
    exactly from summaries, so the p50 is the window-count-weighted mean
    and the p99 the max across reporters (conservative: never understates
    the worst client's tail).  With one load generator — the common case —
    both are exact.
    """
    reporters = list(snapshots.values())
    if not reporters:
        return None
    window_count = sum(int(s.get("window_count", 0)) for s in reporters)
    weight = max(1, window_count)
    return {
        "reporters": sorted(snapshots),
        "window_count": window_count,
        "completed": sum(int(s.get("completed", 0)) for s in reporters),
        "arrival_rate": sum(float(s.get("arrival_rate", 0.0)) for s in reporters),
        "served_rate": sum(float(s.get("served_rate", 0.0)) for s in reporters),
        "latency_p50_ms": sum(
            float(s.get("latency_p50_ms", 0.0)) * int(s.get("window_count", 0))
            for s in reporters
        ) / weight,
        "latency_p99_ms": max(
            float(s.get("latency_p99_ms", 0.0)) for s in reporters
        ),
    }


def _cmd_watch(args: argparse.Namespace) -> int:
    import asyncio
    import time as _time

    from .loadgen.transport import LiveTransport
    from .metrics.bus import render_stats

    _require_positive(args, "interval", "count")
    endpoints = _endpoints_from(args)
    if args.prometheus and args.json:
        raise _Exit("--prometheus and --json are mutually exclusive")

    async def watch() -> int:
        transport = await LiveTransport.connect(endpoints)
        try:
            last_completed: _t.Optional[int] = None
            last_at = _time.monotonic()
            polls = 0
            while args.count is None or polls < args.count:
                if polls:
                    await asyncio.sleep(args.interval)
                # One record per poll; the three modes are renderings of it.
                stats = await transport.fetch_stats()
                now = _time.monotonic()
                completed, workers = int(stats["completed"]), stats["workers"]
                rate = (
                    0.0
                    if last_completed is None
                    else (completed - last_completed) / max(now - last_at, 1e-9)
                )
                last_completed, last_at = completed, now
                client = _combine_client_bus(stats.get("client_bus", {}))
                if args.prometheus:
                    print(render_stats(stats), end="", flush=True)
                elif args.json:
                    record = {
                        "poll": polls,
                        "completed": completed,
                        "ops_per_s": rate,
                        "uptime_model_s": float(stats["uptime_model_s"]),
                        "traced_ops": int(stats["traced_ops"]),
                        "workers": workers,
                        "client_bus": client,
                    }
                    print(json.dumps(record), flush=True)
                else:
                    backlog = " ".join(
                        f"w{w['worker']}:{int(w['queued']) + int(w['in_service'])}"
                        for w in workers
                    )
                    late = sum(float(w["lateness_total_s"]) for w in workers)
                    line = (
                        f"[watch] completed={completed} ops/s={rate:,.0f} "
                        f"uptime={float(stats['uptime_model_s']):.2f}"
                        f"model-s late={late / max(completed, 1) * 1e3:.3f}ms "
                        f"backlog {backlog}"
                    )
                    if client is not None:
                        line += (
                            f" | client p50={client['latency_p50_ms']:.2f}ms"
                            f" p99={client['latency_p99_ms']:.2f}ms"
                            f" ({len(client['reporters'])} reporter(s))"
                        )
                    print(line, flush=True)
                polls += 1
            return 0
        finally:
            await transport.close()

    try:
        return _run_live("watch", watch())
    except KeyboardInterrupt:
        return 0


def _add_firehose(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "firehose",
        help="saturate a live service with closed-loop multigets",
        description="Drive a running service as hard as the wire allows: "
                    "a fixed window of multigets kept in flight, no "
                    "arrival schedule and no replica selection, so the "
                    "measured ceiling is the transport's (codec, "
                    "pipelining, write batching), not the scheduler's. The "
                    "wire path that `bench/run.py --workload "
                    "live-firehose-fanout8` and the CI cluster smoke drive; "
                    "use `repro loadgen` to measure scheduling quality.",
    )
    _add_wire_flags(p, "endpoints",
                    endpoints="comma-separated endpoints of the cluster "
                              "(default: the default serve address)")
    p.add_argument("--multigets", type=int, default=10_000, metavar="N",
                   help="measured multigets (after warmup)")
    p.add_argument("--fanout", type=int, default=4, metavar="K",
                   help="keys per multiget")
    p.add_argument("--window", type=int, default=256, metavar="W",
                   help="multigets kept in flight (1 = sequential)")
    p.add_argument("--value-size", type=int, default=1024, metavar="B",
                   help="value bytes per key")
    p.add_argument("--timeout", type=float, default=300.0, metavar="S",
                   help="wall-clock safety timeout")
    p.add_argument("--out", type=str, default=None,
                   help="write the measurement JSON here")
    p.set_defaults(func=_cmd_firehose)


def _cmd_firehose(args: argparse.Namespace) -> int:
    from .loadgen import run_firehose

    _require_positive(
        args, "multigets", "fanout", "window", "value_size", "timeout"
    )
    endpoints = _endpoints_from(args)
    where = ", ".join(f"{h}:{p}" for h, p in endpoints)
    print(
        f"firehose -> {where}: {args.multigets} multigets x fanout "
        f"{args.fanout}, window {args.window}"
    )
    result = _run_live(
        "firehose",
        run_firehose(
            endpoints,
            multigets=args.multigets,
            fanout=args.fanout,
            value_size=args.value_size,
            window=args.window,
            wall_timeout=args.timeout,
        ),
    )
    print(
        f"{result.multigets_per_s:,.0f} multigets/s "
        f"({result.ops_per_s:,.0f} ops/s) over {result.elapsed_s:.2f}s"
    )
    print(
        f"multiget RTT: p50 {result.p50_ms:.2f} ms, p99 {result.p99_ms:.2f} ms "
        f"(wall; divide by the server's time scale for model time)"
    )
    print(
        f"wire: {result.writes_per_multiget:.3f} writes/multiget, "
        f"{result.bytes_per_op:.1f} bytes/op sent"
    )
    _save_json(args.out, result.to_dict(), "measurement")
    return 0


def _add_compare(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "compare", help="sim vs live differential for one scenario"
    )
    p.add_argument("--scenario", default="steady-state", choices=SCENARIOS)
    p.add_argument("--strategy", default="c3,unifincr-credits",
                   help="comma-separated strategy names")
    p.add_argument("--tasks", type=int, default=5000)
    p.add_argument("--seeds", type=int, default=1, metavar="K",
                   help="seed grid 1..K for both realms")
    p.add_argument("--time-scale", type=float, default=None, metavar="S",
                   help="live time stretch (default 25)")
    p.add_argument("--out", type=str, default=None, help="raw JSON output path")
    _add_parallel_flags(p)  # applies to the simulated half of the diff
    p.set_defaults(func=_cmd_compare)


def _cmd_compare(args: argparse.Namespace) -> int:
    from .loadgen import run_compare
    from .serve import DEFAULT_TIME_SCALE

    strategies = tuple(s for s in args.strategy.split(",") if s)
    if not strategies:
        raise _Exit("need at least one strategy to compare")
    for name in strategies:
        if name not in KNOWN_STRATEGIES:
            raise _Exit(f"unknown strategy {name!r}")
    _reject_model_strategies(strategies)
    _require_positive(args, "tasks", "seeds", "time_scale")
    jobs = _jobs_from(args)
    time_scale = args.time_scale if args.time_scale is not None else DEFAULT_TIME_SCALE
    print(
        f"comparing {', '.join(strategies)} on {args.scenario!r}: "
        f"{args.tasks} tasks x {args.seeds} seed(s), sim then live "
        f"(loopback, {time_scale:g}x time scale)"
    )
    report = run_compare(
        args.scenario,
        strategies,
        n_tasks=args.tasks,
        seeds=tuple(range(1, args.seeds + 1)),
        time_scale=time_scale,
        jobs=jobs,
    )
    print(report.render())
    _save_json(args.out, report.to_dict())
    return 0


def _add_ring(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "ring", help="inspect or perturb the replica-placement ring"
    )
    p.add_argument("--scenario", default=None, choices=SCENARIOS,
                   help="take the cluster shape from a named scenario")
    p.add_argument("--servers", type=int, default=None,
                   help="server count (default: the paper's 9)")
    p.add_argument("--rf", type=int, default=None, metavar="R",
                   help="replication factor (default 3; R == servers gives "
                        "the degenerate full-replication ring)")
    p.add_argument("--partitions", type=int, default=None,
                   help="partition (shard) count")
    p.add_argument("--kind", default=None, choices=("ring", "chash"),
                   help="token ring or vnode consistent hashing")
    p.add_argument("--keys", type=int, default=10_000, metavar="N",
                   help="keyspace sampled for ownership shares")
    p.add_argument("--key", type=int, action="append", default=None,
                   metavar="K", help="look up K's partition and replica set "
                   "(repeatable)")
    p.add_argument("--exclude", default=None, metavar="IDS",
                   help="comma-separated server ids to decommission; prints "
                        "the movement delta against the theoretical minimum")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable report")
    p.set_defaults(func=_cmd_ring)


def _ring_cluster(args: argparse.Namespace):
    """The ClusterSpec a ``repro ring`` invocation describes."""
    from .cluster.topology import ClusterSpec

    if args.scenario is not None:
        base = get_scenario(args.scenario).build_config(n_tasks=1).cluster
    else:
        base = ClusterSpec()
    import dataclasses as _dc

    return _dc.replace(
        base,
        **_given(
            args,
            n_servers="servers",
            replication_factor="rf",
            n_partitions="partitions",
            placement_kind="kind",
        ),
    )


def _cmd_ring(args: argparse.Namespace) -> int:
    from .placement import placement_delta, ring_report

    _require_positive(args, "keys")
    try:
        cluster = _ring_cluster(args)
        placement = cluster.make_placement()
        placement.validate()
    except ValueError as exc:
        raise _Exit(f"bad ring: {exc}") from exc
    report = ring_report(placement, n_keys=args.keys)
    lookups = [
        {
            "key": key,
            "partition": placement.partition_of(key),
            "replicas": list(placement.replicas_of_key(key)),
        }
        for key in (args.key or ())
    ]
    delta = None
    if args.exclude:
        try:
            excluded = [int(s) for s in args.exclude.split(",") if s]
            perturbed = placement.without_servers(excluded)
            delta = placement_delta(placement, perturbed, n_keys=args.keys)
        except (ValueError, NotImplementedError) as exc:
            raise _Exit(f"cannot exclude: {exc}") from exc
    if args.as_json:
        out: _t.Dict[str, _t.Any] = report.to_dict()
        if lookups:
            out["lookups"] = lookups
        if delta is not None:
            out["exclude_delta"] = delta.to_dict()
        print(json.dumps(out, indent=2))
        return 0
    print(repr(placement))
    print(render_table(report.to_rows(), title="ownership", float_fmt=".1f"))
    print(f"balance: key-share CV {report.replica_share_cv:.3f}, "
          f"hottest server at {report.max_over_mean:.2f}x the mean share")
    print("\n".join(report.ownership_bars()))
    if lookups:
        print(render_table(lookups, title="key lookups"))
    if delta is not None:
        print(
            f"decommissioning {args.exclude}: {delta.changed_partitions} "
            f"partition(s) re-home; {delta.moved_fraction:.1%} of keys "
            f"change replica set ({delta.primary_moved_fraction:.1%} change "
            f"primary); theoretical minimum {delta.affected_fraction:.1%}"
        )
    return 0


def _add_strategies(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("strategies", help="list the strategies")
    p.set_defaults(func=_cmd_strategies)


def _cmd_strategies(args: argparse.Namespace) -> int:
    for name in KNOWN_STRATEGIES:
        marker = "*" if name in FIGURE2_STRATEGIES else " "
        description = get_builder(name).description
        print(f" {marker} {name:20s} {description}")
    print("\n * = plotted in the paper's Figure 2")
    return 0


def _add_scenarios(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser("scenarios", help="list the scenarios")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="show overrides and fault schedules")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable listing (names, workload params, "
                        "fault events)")
    p.set_defaults(func=_cmd_scenarios)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.as_json:
        print(json.dumps([spec.to_dict() for spec in SCENARIOS.values()], indent=2))
        return 0
    for name, spec in SCENARIOS.items():
        if args.verbose:
            print(spec.describe())
        else:
            faults = len(spec.faults)
            tag = f" ({faults} fault event{'s' if faults != 1 else ''})" if faults else ""
            print(f"  {name:24s} {spec.summary}{tag}")
    print("\nrun one with: python -m repro run --scenario <name>")
    return 0


def _subcommands(
    parser: argparse.ArgumentParser,
) -> _t.Dict[str, argparse.ArgumentParser]:
    """Name -> subparser map of one parser's subcommands (empty if none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _describe_action(action: argparse.Action) -> _t.Optional[_t.Dict[str, str]]:
    """One markdown table row for an argparse action (None = skip)."""
    if isinstance(
        action, (argparse._HelpAction, argparse._SubParsersAction)
    ):
        return None
    if action.option_strings:
        metavar = action.metavar or (
            action.dest.upper() if action.nargs != 0 else ""
        )
        flag = ", ".join(action.option_strings)
        if metavar and action.nargs != 0:
            flag = f"{flag} {metavar}"
    else:
        flag = action.metavar or action.dest
    if action.default is None or action.default is argparse.SUPPRESS:
        default = "--"
    elif action.default is False and action.nargs == 0:
        default = "--"
    else:
        default = repr(action.default)
    help_text = (action.help or "").replace("|", "\\|")
    if action.choices is not None and len(action.choices) <= 8:
        help_text += f" (choices: {', '.join(str(c) for c in action.choices)})"
    return {"flag": f"`{flag}`", "default": default, "help": help_text}


def render_cli_docs(parser: _t.Optional[argparse.ArgumentParser] = None) -> str:
    """Render ``docs/cli.md`` from the live argparse tree.

    Every flag of every subcommand lands in one greppable file; the docs
    test regenerates this text and diffs it against the committed file,
    so the CLI reference can never drift from the parser.
    """
    parser = parser if parser is not None else build_parser()
    lines = [
        "# CLI reference",
        "",
        "<!-- Generated by `repro docs-cli --out docs/cli.md`; do not edit"
        " by hand. -->",
        "",
        f"`python -m repro` / `repro` -- {parser.description}",
        "",
        "Run `repro <command> --help` for the authoritative, current help.",
        "",
    ]

    def emit(name: str, sub: argparse.ArgumentParser, depth: int) -> None:
        lines.append(f"{'#' * depth} `repro {name}`")
        lines.append("")
        help_text = sub.description or ""
        if help_text:
            lines.append(help_text)
            lines.append("")
        rows = [r for r in map(_describe_action, sub._actions) if r]
        if rows:
            lines.append("| flag | default | meaning |")
            lines.append("| --- | --- | --- |")
            for row in rows:
                lines.append(
                    f"| {row['flag']} | {row['default']} | {row['help']} |"
                )
            lines.append("")
        for child_name, child in _subcommands(sub).items():
            emit(f"{name} {child_name}", child, depth + 1)

    for name, sub in _subcommands(parser).items():
        emit(name, sub, 2)
    return "\n".join(lines).rstrip() + "\n"


def _add_docs_cli(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "docs-cli", help="render docs/cli.md from the argparse tree"
    )
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the markdown here (default: stdout)")
    p.add_argument("--check", default=None, metavar="PATH",
                   help="exit 1 unless PATH matches the rendered markdown")
    p.set_defaults(func=_cmd_docs_cli)


def _cmd_docs_cli(args: argparse.Namespace) -> int:
    text = render_cli_docs()
    if args.check is not None:
        on_disk = Path(args.check).read_text(encoding="utf-8")
        if on_disk != text:
            raise _Exit(
                f"{args.check} is stale; regenerate with "
                f"`repro docs-cli --out {args.check}`",
                code=1,
            )
        print(f"{args.check} is up to date")
        return 0
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
        return 0
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BRB (SIGCOMM'15) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run(subparsers)
    _add_sweep(subparsers)
    _add_record(subparsers)
    _add_serve(subparsers)
    _add_loadgen(subparsers)
    _add_watch(subparsers)
    _add_firehose(subparsers)
    _add_compare(subparsers)
    _add_trace(subparsers)
    _add_ring(subparsers)
    _add_strategies(subparsers)
    _add_scenarios(subparsers)
    _add_docs_cli(subparsers)
    return parser


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # Downstream consumer (`repro trace ... | head`) closed stdout;
        # swap in devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
