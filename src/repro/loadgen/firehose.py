"""The firehose: a raw wire-throughput driver for the live cluster.

The loadgen driver (:mod:`repro.loadgen.driver`) measures *scheduling*:
it replays a paper workload on a scaled model clock, so its throughput is
bounded by the scenario's arrival rate, not by the transport.  The
firehose measures the *wire path* itself.  It rides the same
:class:`~repro.loadgen.transport.LiveTransport` (handshake, binary codec,
pooled links, control frames, stats query, outcome future) but
skips the strategy stack entirely -- its ``on_res`` is bound straight to
the links, and its ops go straight out on them: a fixed window of
multigets is kept in flight on every run, and the moment one multiget
completes, the next is issued.  The number it reports is therefore the
throughput ceiling of codec + framing + write batching + event loop --
the quantity the binary-protocol work is supposed to move, and what
``bench/run.py --workload live-firehose-fanout8`` and ``repro firehose``
put on the record.

A *multiget* here is ``fanout`` single-key ops issued together and
considered complete when the last response arrives, mirroring the
paper's fan-out/fan-in request structure; its RTT is wall-clock time
from first op sent to last response in.

To measure the transport rather than the backend, point the firehose at
a server built with a small time scale and a generous core count (as
that workload does), so that calibrated service sleeps collapse below the
event-loop timer resolution and queueing never becomes the bottleneck.
"""

from __future__ import annotations

import dataclasses
import time
import typing as _t

from ..serve.codec import BINARY_CODEC
from ..serve.protocol import MAX_PROTOCOL_VERSION
from .transport import Endpoint, LiveTransport, LiveTransportError, RID_MASK

#: Fixed priority for firehose ops: everything equal, FIFO per worker.
_PRIORITY: _t.Tuple[float, ...] = (0.0,)

#: Every firehose op is binary: the handshake switched every link to it.
_encode_op = BINARY_CODEC.encode_op

#: Ops cycle over keys ``0 .. KEY_SPACE - 1``.
KEY_SPACE = 16384

#: The ``stats`` counters a result's ``server_io`` keeps.
_SERVER_IO_KEYS = (
    "completed",
    "rejected",
    "frames_received",
    "frames_sent",
    "bytes_sent",
    "writes",
    "traced_ops",
)


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
        total: int,
        warmup: int,
        fanout: int,
        value_size: int,
    ) -> None:
        self.total = total
        self.warmup = warmup
        self.fanout = fanout
        self.value_size = value_size
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

    def attach(self, transport: LiveTransport) -> None:
        """The connected cluster: its links carry the ops, its outcome the
        run's end (``on_res`` is already what its links deliver to)."""
        self.transport = transport
        self.worker_ids = sorted(transport.worker_links)
        self.worker_links = transport.worker_links

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
            key = op % KEY_SPACE
            link.out.send(
                _encode_op(rid, worker_id, key, self.value_size, _PRIORITY)
            )

    # -- inbound frames -------------------------------------------------------
    def on_res(self, rid: int, *_measurements: _t.Any) -> None:
        mg = self.pending.pop(rid, -1)
        if mg < 0:
            self.transport.fail(
                LiveTransportError(f"result for unknown wire id {rid}")
            )
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
            self.measure_io_base = self.transport.io_counters()
        if self.next_mg < self.total:
            self.issue_one()
        elif self.completed == self.total:
            self.t_measure_end = now
            self.transport.finish()


async def run_firehose(
    endpoints: _t.Sequence[Endpoint],
    multigets: int = 5000,
    fanout: int = 4,
    value_size: int = 1024,
    window: int = 64,
    pool: int = 1,
    protocol: int = MAX_PROTOCOL_VERSION,
    wall_timeout: float = 300.0,
) -> FirehoseResult:
    """Saturate a live cluster and measure its wire-path throughput.

    Keeps ``window`` multigets pipelined across ``pool`` connections per
    endpoint until ``multigets`` of them (after a discarded warm-up of
    ``min(max(window, 100), multigets)``) have completed; ops round-robin over every worker the cluster
    advertises.  Returns throughput, multiget RTT percentiles and the
    I/O ledger on both sides.

    ``protocol`` accepts only 2, the binary data plane, which every link
    speaks: it stays a keyword because ``bench/workloads.py`` passes it.
    """
    if multigets < 1 or fanout < 1 or window < 1 or pool < 1:
        raise ValueError("multigets, fanout, window and pool must be >= 1")
    if protocol != MAX_PROTOCOL_VERSION:
        raise ValueError(
            f"protocol {protocol!r}: the firehose speaks only the binary "
            f"protocol {MAX_PROTOCOL_VERSION}"
        )
    # Enough to fill the window and warm every worker's EWMA, bounded so
    # short smoke runs are not dominated by it.
    warmup = min(max(window, 100), multigets)
    total = warmup + multigets

    run = _FirehoseRun(total, warmup, fanout, value_size)
    # The firehose never consumes congestion broadcasts: opt every
    # connection out so saturation does not turn into a broadcast storm.
    transport = await LiveTransport.connect(
        endpoints, pool, congestion=False, on_res=run.on_res
    )
    run.attach(transport)
    try:
        for _ in range(min(window, total)):
            run.issue_one()
        await transport.wait(
            wall_timeout, lambda: f"{run.completed} of {total} multigets done"
        )
        stats = await transport.fetch_stats()
    finally:
        await transport.close()

    rtts = sorted(run.rtts)
    measured_io = {
        key: value - run.measure_io_base.get(key, 0)
        for key, value in transport.io_counters().items()
    }
    return FirehoseResult(
        multigets=multigets,
        fanout=fanout,
        window=window,
        pool=pool,
        endpoints=len(endpoints),
        protocol=transport.ack["proto"],
        elapsed_s=run.t_measure_end - run.t_measure_start,
        p50_ms=_percentile(rtts, 50.0) * 1e3,
        p99_ms=_percentile(rtts, 99.0) * 1e3,
        client_io=measured_io,
        server_io={key: stats[key] for key in _SERVER_IO_KEYS},
        congestion_frames=transport.congestion_signals,
    )
