"""Live wire-path throughput benchmark: the firehose ablation grid.

Runs :func:`repro.loadgen.run_firehose` against real forked server
processes (:class:`repro.serve.ServeSupervisor`) across the transport
ablation grid -- single connection vs pooled, one vs two server
processes, sequential vs pipelined -- and writes
``results/live_throughput.json``.  The grid isolates each lever of the
live-path overhaul:

* ``binary-seq-1proc`` is the *before*: one connection, one multiget in
  flight at a time (the synchronous request-response discipline the
  pre-overhaul transport approximated);
* the deep-window cells turn on pipelining, then connection pooling,
  then the multi-process cluster;
* the ``fanout8`` rider reports a paper-shaped multiget (8 keys) on the
  full stack, for scale -- it is informational, not gated.

The backend is configured so the *transport* is what saturates: a small
time scale collapses emulated service sleeps below the event-loop timer
resolution, and a generous core count keeps the whole pipeline window in
service at once (otherwise the bench would measure queueing, which is
the loadgen driver's job to measure).  Raw rates are machine-bound, so
each cell also records a ``normalized`` value (multigets per calibration
spin); CI's live perf gate compares those (see
``benchmarks/check_live_throughput.py``).

Scale control: ``REPRO_FIREHOSE_MULTIGETS`` (default 12000) sizes the
largest cells.
"""

import asyncio
import os
import time

from conftest import save_report

from repro.cluster.topology import ClusterSpec
from repro.loadgen import run_firehose
from repro.scenarios import get_scenario
from repro.serve import ServeSupervisor

MULTIGETS = int(os.environ.get("REPRO_FIREHOSE_MULTIGETS", "12000"))
TIME_SCALE = 0.02

#: Pipeline depth of the deep-window cells (multigets in flight).
WINDOW = 512

#: name -> (procs, pool, window, fanout, share of MULTIGETS).
#: The sequential baseline gets a small share: at one multiget in flight
#: it runs two orders of magnitude slower than the headline cell.
CELLS = (
    ("binary-seq-1proc", 1, 1, 1, 1, 0.08),
    ("binary-deep-1proc", 1, 1, WINDOW, 1, 1.0),
    ("binary-pooled-1proc", 1, 2, WINDOW, 1, 1.0),
    ("binary-pooled-2proc", 2, 2, WINDOW, 1, 1.0),
    ("binary-pooled-2proc-fanout8", 2, 2, 64, 8, 0.25),
)

HEADLINE = "binary-pooled-2proc"
SEQUENTIAL = "binary-seq-1proc"


def bench_config():
    """A steady-state cluster whose backend outruns the transport."""
    return get_scenario("steady-state").build_config(
        strategy="c3",
        n_tasks=1,
        cluster=ClusterSpec(n_servers=8, cores_per_server=64),
        # The firehose opts out of congestion broadcasts anyway; a long
        # interval keeps the per-worker monitors off the hot loop.
        congestion_check_interval=50.0,
    )


def calibration_spin(n=2_000_000):
    """Pure-Python spin rate: the machine-speed yardstick (see the event
    throughput bench, which uses the identical loop)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i
    return n / (time.perf_counter() - t0)


def run_cell(config, procs, pool, window, fanout, multigets):
    """One grid cell: fork a fresh cluster, drive it, tear it down."""
    supervisor = ServeSupervisor(
        config, procs=procs, time_scale=TIME_SCALE, base_port=0
    )
    endpoints = supervisor.start()
    try:
        result = asyncio.run(
            run_firehose(
                endpoints,
                multigets=multigets,
                fanout=fanout,
                window=window,
                pool=pool,
            )
        )
    finally:
        supervisor.stop()
    return result


def measure():
    spins = max(calibration_spin() for _ in range(3))
    config = bench_config()
    data = {
        "calibration_spins_per_sec": spins,
        "config": {
            "n_servers": config.cluster.n_servers,
            "cores_per_server": config.cluster.cores_per_server,
            "time_scale": TIME_SCALE,
            "value_size": 1024,
        },
        "cells": {},
    }
    for name, procs, pool, window, fanout, share in CELLS:
        count = max(500, int(MULTIGETS * share))
        result = run_cell(config, procs, pool, window, fanout, count)
        cell = result.to_dict()
        cell["normalized"] = result.multigets_per_s / spins
        data["cells"][name] = cell
    headline = data["cells"][HEADLINE]
    sequential = data["cells"][SEQUENTIAL]
    data["ratios"] = {
        "headline_vs_sequential": (
            headline["multigets_per_s"] / sequential["multigets_per_s"]
        ),
        "headline_cell": HEADLINE,
        "sequential_cell": SEQUENTIAL,
    }
    return data


def test_live_throughput_bench():
    data = measure()
    lines = ["live wire-path throughput (firehose):"]
    for name, cell in data["cells"].items():
        lines.append(
            f"  {name:28s} {cell['multigets_per_s']:9,.0f} multigets/s  "
            f"p50 {cell['p50_ms']:7.2f} ms  p99 {cell['p99_ms']:7.2f} ms  "
            f"writes/mg {cell['writes_per_multiget']:.3f}  "
            f"bytes/op {cell['bytes_per_op']:.1f}"
        )
    ratios = data["ratios"]
    lines.append(
        f"  speedup {HEADLINE} vs {SEQUENTIAL}: "
        f"{ratios['headline_vs_sequential']:.1f}x"
    )
    report = "\n".join(lines)
    print("\n" + report)
    save_report("live_throughput", report, data=data)

    cells = data["cells"]
    # Every cell must have actually completed its multigets with sane
    # latencies; a wedged cell would otherwise record rate 0 silently.
    for name, cell in cells.items():
        assert cell["multigets_per_s"] > 0, name
        assert 0 < cell["p99_ms"] < float("inf"), name
    # Machine-independent structural claims of the overhaul:
    # pipelining + pooling + processes beats the sequential baseline by an
    # order of magnitude ...
    assert ratios["headline_vs_sequential"] >= 10.0
    # ... writes stay coalesced under pipelining (many frames per
    # syscall), which is the point of the BatchWriter.
    assert cells[HEADLINE]["writes_per_multiget"] < 0.5
    # Binary op+res round trip is ~33 payload bytes + 4B length prefix
    # per direction; anything near JSON's ~95 means the codec is not binary.
    assert cells[HEADLINE]["bytes_per_op"] < 45.0
