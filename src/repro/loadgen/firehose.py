"""The firehose: a raw wire-throughput driver for the live cluster.

The loadgen driver (:mod:`repro.loadgen.driver`) measures *scheduling*:
it replays a paper workload on a scaled model clock, so its throughput is
bounded by the scenario's arrival rate, not by the transport.  The
firehose measures the *wire path* itself.  It speaks the same protocol
(handshake, negotiated codec, pipelined op frames over pooled
connections) but skips the strategy stack entirely: a fixed window of
multigets is kept in flight on every run, and the moment one multiget
completes, the next is issued.  The number it reports is therefore the
throughput ceiling of codec + framing + write batching + event loop --
the quantity the binary-protocol work is supposed to move, and what
``benchmarks/test_bench_live_throughput.py`` and ``repro firehose`` put
on the record.

A *multiget* here is ``fanout`` single-key ops issued together and
considered complete when the last response arrives, mirroring the
paper's fan-out/fan-in request structure; its RTT is wall-clock time
from first op sent to last response in.

To measure the transport rather than the backend, point the firehose at
a server built with a small time scale and a generous core count (see
the benchmark), so that calibrated service sleeps collapse below the
event-loop timer resolution and queueing never becomes the bottleneck.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import typing as _t

from ..serve.protocol import MAX_PROTOCOL_VERSION
from .transport import (
    Endpoint,
    Link,
    LiveTransportError,
    RID_MASK,
    ack_workers,
    io_counters,
    open_links,
    sum_stats,
)

#: Fixed priority for firehose ops: everything equal, FIFO per worker.
_PRIORITY: _t.Tuple[float, ...] = (0.0,)


@dataclasses.dataclass
class FirehoseResult:
    """One firehose run's measurements (wall-clock units throughout)."""

    multigets: int
    fanout: int
    window: int
    pool: int
    endpoints: int
    protocol: int
    elapsed_s: float
    p50_ms: float
    p99_ms: float
    #: Client-side send/receive ledger over the *measured* (post-warmup)
    #: span: frames_sent, bytes_sent, writes, frames_received.
    client_io: _t.Dict[str, int]
    #: Server-side cumulative totals (include warmup traffic).
    server_io: _t.Dict[str, int]
    congestion_frames: int

    @property
    def ops(self) -> int:
        return self.multigets * self.fanout

    @property
    def multigets_per_s(self) -> float:
        return self.multigets / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def ops_per_s(self) -> float:
        return self.multigets_per_s * self.fanout

    @property
    def writes_per_multiget(self) -> float:
        """Client write syscalls per multiget: the batching payoff."""
        return self.client_io["writes"] / self.multigets if self.multigets else 0.0

    @property
    def bytes_per_op(self) -> float:
        """Client bytes on the wire per op (length prefix included)."""
        return self.client_io["bytes_sent"] / self.ops if self.ops else 0.0

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "multigets": self.multigets,
            "fanout": self.fanout,
            "window": self.window,
            "pool": self.pool,
            "endpoints": self.endpoints,
            "protocol": self.protocol,
            "elapsed_s": self.elapsed_s,
            "multigets_per_s": self.multigets_per_s,
            "ops_per_s": self.ops_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "writes_per_multiget": self.writes_per_multiget,
            "bytes_per_op": self.bytes_per_op,
            "client_io": dict(self.client_io),
            "server_io": dict(self.server_io),
            "congestion_frames": self.congestion_frames,
        }


def _percentile(sorted_values: _t.Sequence[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = int(round(q / 100.0 * (len(sorted_values) - 1)))
    return sorted_values[index]


class _FirehoseRun:
    """Shared state between the issue path and the per-link read callbacks."""

    def __init__(
        self,
        links: _t.List[Link],
        worker_links: _t.Dict[int, _t.List[Link]],
        total: int,
        warmup: int,
        fanout: int,
        value_size: int,
        key_space: int,
    ) -> None:
        self.links = links
        self.worker_ids = sorted(worker_links)
        self.worker_links = worker_links
        self.total = total
        self.warmup = warmup
        self.fanout = fanout
        self.value_size = value_size
        self.key_space = key_space
        self.pending: _t.Dict[int, int] = {}
        self.remaining = [fanout] * total
        self.starts = [0.0] * total
        self.rtts: _t.List[float] = []
        self.completed = 0
        self.next_mg = 0
        self.op_counter = 0
        self.t_measure_start = 0.0
        self.t_measure_end = 0.0
        self.measure_io_base: _t.Dict[str, int] = {}
        self.congestion_frames = 0
        loop = asyncio.get_running_loop()
        self.done = asyncio.Event()
        self.failed: "asyncio.Future[None]" = loop.create_future()
        self.stats_futures: _t.Dict[Endpoint, "asyncio.Future[_t.Dict[str, _t.Any]]"] = {}

    # -- issue path ---------------------------------------------------------
    def issue_one(self) -> None:
        mg = self.next_mg
        self.next_mg = mg + 1
        self.starts[mg] = time.perf_counter()
        n_workers = len(self.worker_ids)
        for _ in range(self.fanout):
            op = self.op_counter
            self.op_counter = op + 1
            worker_id = self.worker_ids[op % n_workers]
            links = self.worker_links[worker_id]
            link = links[op % len(links)] if len(links) > 1 else links[0]
            rid = op & RID_MASK
            self.pending[rid] = mg
            key = op % self.key_space
            link.out.send(
                link.codec.encode_op(rid, worker_id, key, self.value_size, _PRIORITY)
            )

    # -- inbound frames -------------------------------------------------------
    def on_res(self, rid: int, *_measurements: _t.Any) -> None:
        mg = self.pending.pop(rid, -1)
        if mg < 0:
            self.fail(LiveTransportError(f"result for unknown wire id {rid}"))
            return
        left = self.remaining[mg] - 1
        self.remaining[mg] = left
        if left:
            return
        now = time.perf_counter()
        if mg >= self.warmup:
            self.rtts.append(now - self.starts[mg])
        self.completed += 1
        if self.completed == self.warmup:
            # Warmup drained: the window is full and in steady state, so
            # the measured span starts here.
            self.t_measure_start = now
            self.measure_io_base = io_counters(self.links)
        if self.next_mg < self.total:
            self.issue_one()
        elif self.completed == self.total:
            self.t_measure_end = now
            self.done.set()

    def on_control(self, endpoint: Endpoint, frame: _t.Dict[str, _t.Any]) -> None:
        kind = frame.get("t")
        if kind == "congestion":
            self.congestion_frames += 1
        elif kind == "stats":
            future = self.stats_futures.get(endpoint)
            if future is not None and not future.done():
                future.set_result(frame)
        elif kind == "admin-ack":
            pass
        elif kind == "error":
            self.fail(LiveTransportError(f"service error: {frame.get('error')!r}"))
        else:
            self.fail(LiveTransportError(f"unexpected frame {frame!r}"))

    def fail(self, exc: Exception) -> None:
        if not self.failed.done():
            self.failed.set_exception(exc)


async def run_firehose(
    endpoints: _t.Sequence[Endpoint],
    multigets: int = 5000,
    fanout: int = 4,
    value_size: int = 1024,
    window: int = 64,
    pool: int = 1,
    protocol: int = MAX_PROTOCOL_VERSION,
    warmup: _t.Optional[int] = None,
    key_space: int = 16384,
    wall_timeout: float = 300.0,
) -> FirehoseResult:
    """Saturate a live cluster and measure its wire-path throughput.

    Keeps ``window`` multigets pipelined across ``pool`` connections per
    endpoint until ``multigets`` of them (after ``warmup`` discarded ones)
    have completed; ops round-robin over every worker the cluster
    advertises.  Returns throughput, multiget RTT percentiles and the
    I/O ledger on both sides.
    """
    if multigets < 1 or fanout < 1 or window < 1 or pool < 1:
        raise ValueError("multigets, fanout, window and pool must be >= 1")
    if warmup is None:
        # Enough to fill the window and warm every worker's EWMA, bounded
        # so short smoke runs are not dominated by it.
        warmup = min(max(window, 100), multigets)
    total = warmup + multigets

    # The firehose never consumes congestion broadcasts: opt every
    # connection out so saturation does not turn into a broadcast storm.
    links = await open_links(endpoints, pool, protocol, congestion=False)
    negotiated = min(int(link.ack.get("proto", 1)) for link in links)
    worker_links: _t.Dict[int, _t.List[Link]] = {}
    primary: _t.Dict[Endpoint, Link] = {}
    for link in links:
        primary.setdefault(link.endpoint, link)
        for worker_id in ack_workers(link.ack):
            worker_links.setdefault(worker_id, []).append(link)

    run = _FirehoseRun(
        links, worker_links, total, warmup, fanout, value_size, key_space
    )
    loop = asyncio.get_running_loop()
    for link in links:
        link.start(run.on_res, run.on_control, run.fail)
    try:
        for _ in range(min(window, total)):
            run.issue_one()
        waiter = loop.create_task(run.done.wait())
        finished, _pending = await asyncio.wait(
            {waiter, run.failed},
            timeout=wall_timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        if run.failed in finished:
            waiter.cancel()
            run.failed.exception()
            raise _t.cast(Exception, run.failed.exception())
        if not finished:
            waiter.cancel()
            raise LiveTransportError(
                f"firehose did not complete {total} multigets within "
                f"{wall_timeout}s ({run.completed} done)"
            )
        server_io = await _collect_server_stats(run, primary)
    finally:
        if not run.failed.done():
            run.failed.cancel()
        else:
            run.failed.exception()
        for link in links:
            await link.close(flush_timeout=0.5)

    rtts = sorted(run.rtts)
    measured_io = {
        key: value - run.measure_io_base.get(key, 0)
        for key, value in io_counters(run.links).items()
    }
    return FirehoseResult(
        multigets=multigets,
        fanout=fanout,
        window=window,
        pool=pool,
        endpoints=len(endpoints),
        protocol=negotiated,
        elapsed_s=run.t_measure_end - run.t_measure_start,
        p50_ms=_percentile(rtts, 50.0) * 1e3,
        p99_ms=_percentile(rtts, 99.0) * 1e3,
        client_io=measured_io,
        server_io=server_io,
        congestion_frames=run.congestion_frames,
    )


async def _collect_server_stats(
    run: _FirehoseRun, primary: _t.Dict[Endpoint, Link]
) -> _t.Dict[str, int]:
    """One stats round-trip per endpoint, summed into a cluster ledger."""
    loop = asyncio.get_running_loop()
    for endpoint, link in primary.items():
        run.stats_futures[endpoint] = loop.create_future()
        link.send({"t": "admin", "cmd": "stats"})
    try:
        replies = await asyncio.wait_for(
            asyncio.gather(*run.stats_futures.values()), timeout=10.0
        )
    except asyncio.TimeoutError:
        return {}
    return sum_stats(replies)
