"""The live multiget KV service: an asyncio frontend over live workers.

:class:`LiveServer` binds a TCP socket and serves the length-prefixed
frame protocol of :mod:`repro.serve.protocol` -- every connection starts
in JSON, the control plane, and a ``hello`` switches it to the binary data
plane.
Behind the frontend sit :class:`~repro.serve.workers.LiveWorker`
instances -- the simulated backend tier's
:class:`~repro.cluster.server.ServerState` on a wall-clock engine, with
the same cluster shape, the same calibrated service-time model and the
same queue-state feedback on every response.  The server is
strategy-agnostic by design: replica choice, priorities and pacing all
happen client-side (in :mod:`repro.loadgen`), exactly as in the
simulation, so one running server can be driven by any registered
strategy.

One :class:`LiveServer` can host a *subset* of the cluster's workers
(``worker_ids``): that is how the multi-process supervisor
(:mod:`repro.serve.supervisor`) splits one logical cluster across
processes -- each process serves its shard group on its own port and
advertises its ``workers`` in the ``hello-ack``, and clients route ops
by worker id.

Fault injection arrives over the wire: ``admin`` frames slow down, crash,
restart or jitter individual workers -- the verbs of the load generator's
:class:`~repro.loadgen.driver.LiveFaultPort`, which is how the shared fault
injector replays scenario fault schedules against the live backend.
"""

from __future__ import annotations

import asyncio
import typing as _t

from ..cluster.topology import ClusterSpec
from ..core.clock import WallClock
from ..metrics.bus import merge_reports, render_stats
from ..sim.rng import StreamFactory
from ..workload.calibration import ServiceTimeModel
from .codec import BINARY_CODEC, JSON_CODEC
from .protocol import (
    MAX_PROTOCOL_VERSION,
    FrameStream,
    ProtocolError,
    check_hello,
    error_frame,
)
from .workers import LiveJob, LiveWorker, QueueFullError, WorkerPass

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..harness.config import ExperimentConfig

#: Default model-to-wall time stretch for live runs.  Model service times
#: are a few hundred microseconds; stretching 25x keeps every sleep well
#: above the event-loop timer resolution, so live percentiles measure
#: scheduling -- not timer quantization.
DEFAULT_TIME_SCALE = 25.0

#: Default TCP endpoint.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7411

#: Only a connection that said ``hello`` admits ops: every ``res`` is binary.
_encode_res = BINARY_CODEC.encode_res


class _Connection(FrameStream):
    """One client connection: the protocol object the transport calls, the
    sink its frames are delivered to, and a coalescing outbox.

    ``codec`` starts as JSON (control frames only) and the ``hello``
    switches it to the binary data plane.  ``congestion`` is the client's
    opt-in to congestion broadcasts (pool connections beyond an endpoint's
    first opt out, so a controller sees each signal once).

    No handler lets a *rejection* escape: a frame the server cannot honor
    (unknown worker, queue bound, a bad admin value, an ``op`` before the
    ``hello``) is answered with an ``error`` frame (:meth:`reject`) and the
    connection lives.  Whatever does escape :meth:`FrameStream.drain` is a
    framing or codec error, which closes it.
    """

    def __init__(self, server: "LiveServer") -> None:
        super().__init__(JSON_CODEC)
        self.server = server
        self.congestion = True
        #: Arrival instant (model time) of every op in the chunk being drained.
        self.chunk_at = 0.0
        #: Ops admitted from this connection and not answered yet.
        self.in_flight = 0
        #: Newest client-side BusSnapshot per reporter that pushed one over
        #: this connection (``bus-report``); gone from the server's record
        #: with the connection, so a finished load generator is not watched.
        self.reports: _t.Dict[str, _t.Dict[str, _t.Any]] = {}
        #: The bounded fallback of a server-initiated close, once begun.
        self._settling: _t.Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: _t.Any) -> None:
        super().connection_made(transport)
        self.server.connections.append(self)

    def connection_lost(self, exc: _t.Optional[Exception]) -> None:
        super().connection_lost(exc)
        server = self.server
        server.connections.remove(self)
        for key in server._closed_io:  # a closed connection's I/O still counts
            server._closed_io[key] += getattr(self.out, key)
        server._closed_frames += self.frames_read
        if self._settling is not None:
            self._settling.cancel()

    def data_received(self, data: bytes) -> None:
        """One socket chunk, finished here: stamp, parse and queue, then the
        pass that admits (and completes what is due)."""
        self.chunk_at = self.server.clock.now  # one arrival stamp per chunk
        try:
            super().data_received(data)
        except ProtocolError as exc:
            self._settle(exc)
        finally:
            self.server.passes.run()  # the end of the chunk: the end of the instant

    def eof_received(self) -> bool:
        try:
            super().eof_received()
            self._settle(None)
        except ProtocolError as exc:
            self._settle(exc)
        return True  # half-open: what is in flight may still answer

    def _settle(self, damage: _t.Optional[ProtocolError]) -> None:
        """Begin a server-initiated close (framing lost, or EOF): answer,
        read no more, and close when the ops already admitted have answered
        -- ``respond`` sees ``in_flight`` reach 0 -- or after a second."""
        if damage is not None:
            self.send(error_frame(str(damage)))
        self.out.transport.pause_reading()
        if not self.in_flight:
            self.shut()
        elif self._settling is None:
            self._settling = asyncio.get_running_loop().call_later(1.0, self.shut)

    # -- the frame sink ----------------------------------------------------------
    def on_op(
        self,
        rid: int,
        worker_id: int,
        key: int,
        size: int,
        priority: _t.Tuple[float, ...],
        trace: _t.Optional[int],
    ) -> None:
        server = self.server
        worker = server.workers.get(worker_id)
        if worker is None:
            self.reject(f"op addressed to unknown worker {worker_id}")
            return
        if size <= 0:
            self.reject(f"op {rid} has non-positive value size {size}")
            return
        if trace is not None:
            # The context itself rides back implicitly: the res frame is
            # matched to the pending request client-side, and already
            # piggybacks the queue/service timestamps the span needs.
            server.traced_ops += 1
        try:
            worker.submit(
                LiveJob(rid, key, size, priority, self.respond), self.chunk_at
            )
        except QueueFullError as exc:
            self.send(
                {"t": "error", "error": str(exc), "rid": rid, "server": worker_id}
            )
        else:
            self.in_flight += 1

    def on_res(self, *_fields: _t.Any) -> None:
        self.reject("unknown frame type 'res'")

    def on_frame(self, frame: _t.Dict[str, _t.Any]) -> None:
        kind = frame.get("t")
        try:
            if kind == "hello":
                self.server._handle_hello(self, frame)
            elif kind == "admin":
                self.server._handle_admin(self, frame)
            elif kind == "op":  # an op in JSON: the binary codec types its own
                raise ProtocolError(
                    "op frames need the binary protocol: send a hello with "
                    f"max_proto {MAX_PROTOCOL_VERSION} first"
                )
            else:
                raise ProtocolError(f"unknown frame type {kind!r}")
        except (ProtocolError, TypeError, ValueError) as exc:
            # Bad field values (a slowdown factor of 0, a non-numeric
            # mean) reject the one frame, never the whole connection.
            self.reject(str(exc))

    def reject(self, message: str) -> None:
        """Answer one frame the server cannot honor; the connection lives."""
        self.send(error_frame(message))

    def respond(
        self, worker: LiveWorker, job: LiveJob, queue_wait: float, service: float
    ) -> None:
        """The completion callback of every op admitted from this connection."""
        self.in_flight -= 1
        self.out.send(
            _encode_res(
                job.rid, worker.server_id, queue_wait, service, *worker.feedback()
            )
        )
        if self._settling is not None and not self.in_flight:
            self.shut()


class LiveServer:
    """Asyncio multiget KV service mirroring the simulated backend tier."""

    def __init__(
        self,
        cluster: ClusterSpec,
        service_model: ServiceTimeModel,
        time_scale: float = DEFAULT_TIME_SCALE,
        seed: int = 1,
        scenario: _t.Optional[str] = None,
        congestion_interval: float = 0.1,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        worker_ids: _t.Optional[_t.Sequence[int]] = None,
        metrics_port: _t.Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.service_model = service_model
        self.seed = int(seed)
        self.scenario = scenario
        self.congestion_interval = float(congestion_interval)
        self.host = host
        self.port = int(port)
        if worker_ids is None:
            worker_ids = range(cluster.n_servers)
        self.worker_ids: _t.Tuple[int, ...] = tuple(
            sorted(int(i) for i in worker_ids)
        )
        for worker_id in self.worker_ids:
            if not (0 <= worker_id < cluster.n_servers):
                raise ValueError(
                    f"worker id {worker_id} outside the cluster "
                    f"(n_servers={cluster.n_servers})"
                )
        #: Bind a plain-HTTP Prometheus exposition endpoint on this port
        #: (0 = ephemeral, ``None`` = no exporter); resolved after start().
        self.metrics_port = (
            int(metrics_port) if metrics_port is not None else None
        )
        self.clock = WallClock(scale=time_scale)
        self.workers: _t.Dict[int, LiveWorker] = {}
        self.connections: _t.List[_Connection] = []
        self.congestion_frames_sent = 0
        #: Ops that arrived carrying a trace context (sampled requests).
        self.traced_ops = 0
        #: I/O totals of connections that already closed (open connections
        #: are summed live in :meth:`io_counters`).
        self._closed_io = {"frames_sent": 0, "bytes_sent": 0, "writes": 0}
        self._closed_frames = 0
        self._server: _t.Optional[asyncio.AbstractServer] = None
        self._metrics_server: _t.Optional[asyncio.AbstractServer] = None

    @classmethod
    def from_config(
        cls,
        config: "ExperimentConfig",
        time_scale: float = DEFAULT_TIME_SCALE,
        seed: int = 1,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        worker_ids: _t.Optional[_t.Sequence[int]] = None,
        metrics_port: _t.Optional[int] = None,
    ) -> "LiveServer":
        """A server matching one experiment config's backend tier."""
        return cls(
            cluster=config.cluster,
            service_model=config.service_model(),
            time_scale=time_scale,
            seed=seed,
            scenario=config.scenario,
            congestion_interval=config.congestion_check_interval,
            host=host,
            port=port,
            worker_ids=worker_ids,
            metrics_port=metrics_port,
        )

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start workers (port 0 picks an ephemeral one)."""
        streams = StreamFactory(self.seed)
        self.clock = WallClock(scale=self.clock.scale)  # t0 = serving start
        #: The one pass over every worker, and their only loop handles.
        self.passes = WorkerPass()
        # Streams are keyed by *global* worker id, so a worker behaves
        # identically whether its cluster runs in one process or many.
        self.workers = {
            worker_id: LiveWorker(
                clock=self.clock,
                worker_id=worker_id,
                cores=self.cluster.cores_per_server,
                service_model=self.service_model,
                jitter_stream=streams.stream(f"jitter.{worker_id}"),
                passes=self.passes,
            )
            for worker_id in self.worker_ids
        }
        self.clock.call_every(self.congestion_interval, self._check_congestion)
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, self.host, self.metrics_port
            )
            self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        for listener in (self._server, self._metrics_server):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        self._server = self._metrics_server = None
        self.clock.cancel_all()  # the congestion check, jittered responses
        if self.workers:
            self.passes.shutdown()
        for worker in self.workers.values():
            worker.shutdown()
        for connection in list(self.connections):
            await connection.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    @property
    def frames_received(self) -> int:
        """Frames read off every connection so far (closed + open)."""
        return self._closed_frames + sum(
            connection.frames_read for connection in self.connections
        )

    # -- control plane -----------------------------------------------------------
    def _handle_hello(
        self, connection: _Connection, frame: _t.Dict[str, _t.Any]
    ) -> None:
        check_hello(frame)
        connection.congestion = frame.get("congestion", True) is not False
        connection.send(
            {
                "t": "hello-ack",
                "proto": MAX_PROTOCOL_VERSION,
                "n_servers": self.cluster.n_servers,
                "cores_per_server": self.cluster.cores_per_server,
                "per_core_rate": self.cluster.per_core_rate,
                "time_scale": self.clock.scale,
                "scenario": self.scenario,
                "seed": self.seed,
                "workers": list(self.worker_ids),
            }
        )
        # The ack itself travels in the codec the hello came in (encoded
        # above); everything after it is binary, in both directions.
        connection.codec = BINARY_CODEC

    def _admin_targets(self, frame: _t.Dict[str, _t.Any]) -> _t.List[LiveWorker]:
        raw = frame.get("servers")
        if raw is None:
            return list(self.workers.values())
        try:
            ids = [int(s) for s in raw]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad admin target list {raw!r}") from exc
        for worker_id in ids:
            if worker_id not in self.workers:
                raise ProtocolError(f"admin targets unknown worker {worker_id}")
        return [self.workers[i] for i in ids]

    def io_counters(self) -> _t.Dict[str, int]:
        """Cumulative send-side I/O totals (closed + open connections).

        ``writes`` vs ``frames_sent`` is the syscall-batching ratio the
        performance book reports.
        """
        totals = dict(self._closed_io)
        for connection in self.connections:
            for key in totals:
                totals[key] += getattr(connection.out, key)
        return totals

    # -- metrics export -----------------------------------------------------------
    def snapshot(self) -> _t.Dict[str, _t.Any]:
        """The ``stats`` frame: this process's one observability record.

        The admin plane sends it as is (``repro watch``, a run's before /
        after deltas) and the HTTP exporter renders it
        (:func:`~repro.metrics.bus.render_stats`); a cluster's is the merge
        of its processes' (``LiveTransport.fetch_stats``).
        """
        workers = [self.workers[i].stats() for i in self.worker_ids]
        client_bus: _t.Dict[str, _t.Mapping[str, _t.Any]] = {}
        for connection in self.connections:
            merge_reports(client_bus, connection.reports)
        return {
            "t": "stats",
            "completed": sum(w["completed"] for w in workers),
            "rejected": sum(w["rejected"] for w in workers),
            "connections": len(self.connections),
            "frames_received": self.frames_received,
            "congestion_frames_sent": self.congestion_frames_sent,
            "traced_ops": self.traced_ops,
            "uptime_model_s": self.clock.now,
            **self.io_counters(),
            "workers": workers,
            "client_bus": client_bus,
        }

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1 responder: every request gets the metrics page.

        Deliberately not a web framework: one GET in, one text/plain out,
        connection closed -- all a Prometheus scrape needs.
        """
        try:
            while True:  # drain the request line and headers
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = render_stats(self.snapshot()).encode("utf-8")
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # a vanished scraper is not a server problem
        finally:
            writer.close()

    def _handle_admin(
        self, connection: _Connection, frame: _t.Dict[str, _t.Any]
    ) -> None:
        command = frame.get("cmd")
        targets = self._admin_targets(frame)
        if command == "slowdown":
            factor = float(frame.get("factor", 0))
            for worker in targets:
                worker.slowdown(factor)
        elif command == "restore":
            factor = float(frame.get("factor", 0))
            for worker in targets:
                worker.restore(factor)
        elif command == "crash":
            for worker in targets:
                worker.pause()
        elif command == "resume":
            for worker in targets:
                worker.resume()
        elif command == "jitter":
            mean = float(frame.get("mean", 0.0))
            sigma = float(frame.get("sigma", 0.0))
            for worker in targets:
                worker.set_jitter(mean, sigma)
        elif command == "clear-jitter":
            for worker in targets:
                worker.set_jitter(0.0, 0.0)
        elif command == "bus-report":
            # A load generator pushing its client-side BusSnapshot.
            reporter = str(frame.get("reporter", ""))
            snapshot = frame.get("snapshot")
            if not reporter or not isinstance(snapshot, dict):
                raise ProtocolError("bus-report needs a reporter and a snapshot")
            merge_reports(connection.reports, {reporter: snapshot})
        elif command == "stats":  # the one query: answered, not acked
            connection.send(self.snapshot())
            return
        else:
            raise ProtocolError(f"unknown admin command {command!r}")
        connection.send({"t": "admin-ack", "cmd": command})

    # -- congestion ---------------------------------------------------------------
    def _check_congestion(self, _arg: None) -> None:
        """The simulated servers' congestion check on a wall clock: a frame
        to every opted-in client for each worker that is overloaded."""
        interval = self.congestion_interval
        now = self.clock.now
        for worker in self.workers.values():
            ratio = worker.overloaded(now, interval)
            if ratio is not None:
                frame = {
                    "t": "congestion",
                    "server": worker.server_id,
                    "ratio": ratio,
                }
                for connection in self.connections:
                    if connection.congestion:
                        connection.send(frame)
                        self.congestion_frames_sent += 1


async def run_server(
    config: "ExperimentConfig",
    ready: _t.Optional[_t.Callable[[LiveServer], None]] = None,
    **server_options: _t.Any,
) -> None:
    """Start a server from a config and serve until cancelled.

    ``server_options`` are :meth:`LiveServer.from_config`'s.  ``ready`` is
    invoked with the bound server (its ``port`` resolved) -- the CLI
    prints the endpoint, tests grab the ephemeral port.
    """
    server = LiveServer.from_config(config, **server_options)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
