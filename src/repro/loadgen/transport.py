"""The live client transport: the Transport seam over one link per endpoint.

:class:`LiveTransport` is what makes the *unmodified* strategy stack run
against the live service: it implements the same ``register``/``send``
surface as the simulated :class:`~repro.cluster.network.Network`, so
clients, credit gates and the credits controller plug into it directly.
Underneath, it speaks to a whole cluster: one or many server processes
(endpoints), each owning a subset of the workers, with one connection per
endpoint and arbitrarily many pipelined ``op`` frames in flight on it.
Each :class:`Link` is its connection's ``asyncio.Protocol``: a socket
chunk is parsed and handed to the strategy stack before
``data_received`` returns.

Routing
-------
* messages addressed to a **server** (:class:`~repro.cluster.messages.
  RequestMessage`) are turned into wire ``op`` frames on the link to the
  endpoint that owns that worker; the request object itself stays
  client-side in a pending map keyed by a wire id, and the matching
  ``res`` frame is reassembled into the exact
  :class:`~repro.cluster.messages.ResponseMessage` the strategies expect,
  feedback included;
* messages between **local** endpoints (demand reports and credit grants
  between gates and the in-process controller) are delivered on the next
  event-loop turn -- the live analogue of the simulated network's
  asynchronous delivery, and what keeps the control-plane free of
  re-entrant callback chains;
* ``congestion`` frames from the service become
  :class:`~repro.cluster.messages.CongestionSignal` deliveries to the
  controller address, closing the credits feedback loop;
* ``admin`` frames fan out per endpoint, their ``servers`` target list
  cut down to the workers that endpoint owns; ``stats`` replies are
  merged back into one cluster-wide frame.

Outcome
-------
Whoever drives a run over this transport (:func:`~repro.loadgen.driver.
run_live`, the firehose) waits on one future, :attr:`LiveTransport.outcome`:
the run's completion resolves it, and a lost link, a rejected op, a
crashing handler or the first exception of any clock callback fails it
with that exception -- so a run never idles into its wall timeout.

Every link speaks the binary data plane: it sends the ``hello``, and the
``hello-ack`` (protocol 2, or the open fails) switches its codec.  The
JSON form of the protocol is for hand-written control frames only (see
:mod:`repro.serve.protocol`).
"""

from __future__ import annotations

import asyncio
import typing as _t

from ..cluster.addresses import CONTROLLER_ADDRESS, client_address
from ..cluster.messages import CongestionSignal, ResponseMessage, ServerFeedback
from ..core.clock import WallClock
from ..metrics.bus import merge_reports
from ..serve.codec import BINARY_CODEC, JSON_CODEC
from ..serve.protocol import (
    MAX_PROTOCOL_VERSION,
    FrameStream,
    ProtocolError,
    encode_frame,
    error_frame,
    hello_frame,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..cluster.messages import RequestMessage

Endpoint = _t.Tuple[str, int]

#: Wire ids live in the op frame's u32 field.
RID_MASK = 0xFFFFFFFF
#: Wall seconds an endpoint gets to answer an admin query.
QUERY_TIMEOUT_S = 10.0


class LiveTransportError(RuntimeError):
    """The live connection failed or the service rejected a request."""


#: Every op a link sends, in the binary codec its handshake switched to.
_encode_op = BINARY_CODEC.encode_op


def ack_workers(ack: _t.Mapping[str, _t.Any]) -> _t.List[int]:
    """The worker ids one hello-ack advertises."""
    return [int(w) for w in ack["workers"]]


async def open_links(
    endpoints: _t.Sequence[Endpoint], congestion: bool
) -> _t.List["Link"]:
    """Open and handshake one connection per endpoint, in order.

    Returns the links with reading paused until :meth:`Link.start`; each
    subscribes to congestion broadcasts when ``congestion`` is set.  The
    acks are validated against each other; on any failure every connection
    opened so far is closed.
    """
    if not endpoints:
        raise ValueError("need at least one endpoint")
    loop = asyncio.get_running_loop()
    links: _t.List[Link] = []
    try:
        for endpoint in endpoints:
            link = Link(endpoint, congestion)
            await loop.create_connection(lambda: link, *endpoint)
            links.append(link)
            await link.handshaken
        _validate_acks(endpoints, [link.ack for link in links])
    except BaseException:
        for link in links:
            link.out.transport.abort()
        raise
    return links


def _validate_acks(
    endpoints: _t.Sequence[Endpoint],
    acks: _t.Sequence[_t.Dict[str, _t.Any]],
) -> None:
    """Every endpoint must present the same cluster shape and time scale,
    and together they must own each worker exactly once (so an endpoint
    listed twice is refused)."""
    base = acks[0]
    for endpoint, ack in zip(endpoints, acks):
        for field in (
            "n_servers",
            "cores_per_server",
            "per_core_rate",
            "time_scale",
            "scenario",
            "seed",
        ):
            if ack.get(field) != base.get(field):
                raise LiveTransportError(
                    f"cluster endpoints disagree on {field}: "
                    f"{endpoint} says {ack.get(field)!r}, "
                    f"{endpoints[0]} says {base.get(field)!r}"
                )
    owner: _t.Dict[int, Endpoint] = {}
    for endpoint, ack in zip(endpoints, acks):
        for worker_id in ack_workers(ack):
            if worker_id in owner:
                raise LiveTransportError(
                    f"worker {worker_id} claimed by both {owner[worker_id]} "
                    f"and {endpoint}"
                )
            owner[worker_id] = endpoint
    missing = sorted(set(range(int(base.get("n_servers", 0)))) - set(owner))
    if missing:
        raise LiveTransportError(
            f"no endpoint hosts workers {missing}; the endpoint list does "
            "not cover the cluster"
        )


class Link(FrameStream):
    """One connection of a load generator: its protocol object and sink.

    The ``hello`` goes out when the connection is made and the ``hello-ack``
    comes back through the sink like any frame, switching the codec to
    binary mid-drain -- no byte changes readers.  Reading then pauses until
    :meth:`start` names the consumer: ``res`` fields go straight to
    ``on_res``, every other frame to ``on_control`` with its endpoint (admin
    replies are matched per endpoint), a lost or damaged connection's error
    to ``fail``.  :meth:`close` drops all three: a link pointing back at its
    owner would keep every finished run waiting for the cycle collector.
    """

    def __init__(self, endpoint: Endpoint, congestion: bool) -> None:
        super().__init__(JSON_CODEC)  # the handshake always travels in JSON
        self.endpoint = endpoint
        self._congestion = congestion
        #: The server's hello-ack, once ``handshaken`` resolves.
        self.ack: _t.Dict[str, _t.Any] = {}
        self.handshaken = asyncio.get_running_loop().create_future()
        #: Control frames that shared the ack's chunk; ``start`` replays them.
        self._early: _t.List[_t.Dict[str, _t.Any]] = []
        self.on_control: _t.Any = self._handshake
        self.fail: _t.Any = self._refused

    def connection_made(self, transport: _t.Any) -> None:
        super().connection_made(transport)
        transport.write(encode_frame(hello_frame(self._congestion)))

    def _handshake(self, _endpoint: Endpoint, ack: _t.Dict[str, _t.Any]) -> None:
        """``on_control`` until :meth:`start`: validate the ack, switch to
        the binary codec, pause."""
        proto = ack.get("proto")
        if self.handshaken.done():
            self._early.append(ack)
        elif ack.get("t") != "hello-ack":
            why = ack.get("error") if ack.get("t") == "error" else f"got {ack!r}"
            self.fail(LiveTransportError(f"handshake rejected: {why}"))
        elif type(proto) is not int or proto != MAX_PROTOCOL_VERSION:
            self.fail(LiveTransportError(f"server acked unusable proto {proto!r}"))
        else:
            self.codec = BINARY_CODEC
            self.ack = ack
            self.out.transport.pause_reading()
            self.handshaken.set_result(None)

    def _refused(self, exc: Exception) -> None:
        """``fail`` until :meth:`start`, which replays a failure that came
        after the ack as the ``error`` frame it amounts to."""
        if not self.handshaken.done():
            self.handshaken.set_exception(exc)
        else:
            self._early.append(error_frame(str(exc)))

    def on_frame(self, frame: _t.Dict[str, _t.Any]) -> None:
        self.on_control(self.endpoint, frame)

    def start(
        self,
        on_res: _t.Callable[..., None],
        on_control: _t.Callable[[Endpoint, _t.Dict[str, _t.Any]], None],
        fail: _t.Callable[[Exception], None],
    ) -> None:
        """Start reading; ``fail`` gets a lost or damaged connection's error."""
        self.on_res, self.on_control, self.fail = on_res, on_control, fail
        for frame in self._early:
            on_control(self.endpoint, frame)
        self.out.transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        """One socket chunk, finished here: every frame to its consumer."""
        try:
            super().data_received(data)
        except Exception as exc:
            # Anything but a damaged stream is a client-callback bug, which
            # must kill the run loudly too -- a silently-dead link would
            # stall the driver until its wall timeout.
            damaged = isinstance(exc, (ProtocolError, ConnectionError))
            what = "live connection failed" if damaged else "transport crashed on a frame"
            self.out.transport.pause_reading()  # framing is lost: read no more
            self.fail(LiveTransportError(f"{what}: {exc}"))

    def eof_received(self) -> None:
        try:
            super().eof_received()
            self.fail(LiveTransportError("server closed the connection"))
        except ProtocolError as exc:
            self.fail(LiveTransportError(f"live connection failed: {exc}"))

    def connection_lost(self, exc: _t.Optional[Exception]) -> None:
        super().connection_lost(exc)
        if exc is not None:
            self.fail(LiveTransportError(f"live connection failed: {exc}"))

    async def close(self, flush_timeout: float = 1.0) -> None:
        self.on_res = self.on_control = self.fail = lambda *_args: None
        await super().close(flush_timeout)


class LiveTransport:
    """Transport-seam realization over a connected live cluster.

    Build one with :meth:`connect`; the constructor wires an already
    established set of links.
    """

    def __init__(
        self, clock: WallClock, ack: _t.Dict[str, _t.Any]
    ) -> None:
        self.clock = clock
        self._loop = asyncio.get_running_loop()
        #: The first endpoint's hello-ack: the cluster shape every other
        #: endpoint was checked against (drivers validate configs with it).
        self.ack = ack
        self._handlers: _t.Dict[_t.Hashable, _t.Callable[[_t.Any], None]] = {}
        self._pending: _t.Dict[int, "RequestMessage"] = {}
        self._next_rid = 0
        #: Every open connection, one per endpoint, in endpoint order.
        self.links: _t.List[Link] = []
        #: Worker id -> the link to the endpoint that hosts it.
        self.worker_links: _t.Dict[int, Link] = {}
        #: ``stats`` queries awaiting their reply, FIFO per endpoint.
        self._stats_waiters: (
            "_t.Dict[Endpoint, _t.List[asyncio.Future[_t.Dict[str, _t.Any]]]]"
        ) = {}
        #: The run's one outcome: :meth:`finish` resolves it; a lost link, a
        #: rejected op or the first exception of any clock callback (the
        #: feeder, credit reports, pacing and hedge timers, fault windows)
        #: fails it with that exception.  :meth:`wait` awaits it.
        self.outcome: "asyncio.Future[None]" = self._loop.create_future()
        clock.on_error(self.fail)
        self.ops_sent = 0
        self.responses_received = 0
        self.congestion_signals = 0
        #: Trace-context hook: when set, called per outbound op with the
        #: request; a non-None return is the 64-bit context the op carries
        #: (the traced-op frame).
        self.trace_sampler: _t.Optional[
            _t.Callable[["RequestMessage"], _t.Optional[int]]
        ] = None
        #: Latest piggybacked backlog (queued + in service) per server id,
        #: refreshed on every result frame -- the live realm's view of
        #: server heat for the metrics bus (sim reads the servers directly).
        self._backlog: _t.Dict[int, float] = {}

    @classmethod
    async def connect(
        cls,
        endpoints: _t.Sequence[Endpoint],
        congestion: bool = True,
        on_res: _t.Optional[_t.Callable[..., None]] = None,
    ) -> "LiveTransport":
        """Connect one link to every endpoint and assemble routing (see
        :func:`open_links` for what the endpoints must agree on).

        ``congestion=False`` opts every link out of congestion broadcasts;
        ``on_res`` takes the ``res`` fields straight off the links in place
        of the strategy stack's reassembly (the firehose: it has no
        strategy stack to hand a response to).
        """
        links = await open_links(endpoints, congestion)
        base_ack = links[0].ack
        transport = cls(
            clock=WallClock(scale=float(base_ack["time_scale"])), ack=base_ack
        )
        transport.links = links
        for link in links:
            link.start(
                on_res or transport._on_res, transport._handle_frame, transport.fail
            )
            for worker_id in ack_workers(link.ack):
                transport.worker_links[worker_id] = link
        return transport

    # -- Transport protocol ---------------------------------------------------
    def register(
        self, address: _t.Hashable, handler: _t.Callable[[_t.Any], None]
    ) -> None:
        if address in self._handlers:
            raise ValueError(f"address {address!r} already registered")
        self._handlers[address] = handler

    def unregister_all(self) -> None:
        """Drop every handler (run teardown): each is a method of an
        endpoint that holds this transport."""
        self._handlers.clear()

    def send(
        self, src: _t.Hashable, dst: _t.Hashable, message: _t.Any
    ) -> None:
        """Route one message: servers over the wire, everything else local."""
        if isinstance(dst, tuple) and len(dst) == 2 and dst[0] == "server":
            self._send_op(int(dst[1]), message)
        else:
            handler = self._handlers.get(dst)
            if handler is None:
                raise KeyError(f"no handler registered for {dst!r}")
            # Next-turn delivery: like the simulated network, control
            # messages never re-enter the sender's stack synchronously.
            self._loop.call_soon(self._deliver_local, handler, message)

    def _deliver_local(
        self, handler: _t.Callable[[_t.Any], None], message: _t.Any
    ) -> None:
        try:
            handler(message)
        except Exception as exc:
            # A handler bug must fail the run visibly, not vanish into the
            # event loop's default exception logger.
            self.fail(
                LiveTransportError(f"local handler raised for {message!r}: {exc}")
            )

    # -- data path ------------------------------------------------------------
    def _send_op(self, worker_id: int, request: "RequestMessage") -> None:
        link = self.worker_links.get(worker_id)
        if link is None:
            raise LiveTransportError(
                f"op addressed to worker {worker_id}, which no endpoint hosts"
            )
        rid = self._next_rid
        self._next_rid = (rid + 1) & RID_MASK
        self._pending[rid] = request
        self.ops_sent += 1
        trace = (
            self.trace_sampler(request) if self.trace_sampler is not None else None
        )
        link.out.send(
            _encode_op(
                rid,
                worker_id,
                request.op.key,
                request.op.value_size,
                request.priority,
                trace,
            )
        )

    def admin(self, frame: _t.Mapping[str, _t.Any]) -> None:
        """Fan one admin frame out to the endpoints it concerns.

        A frame with a ``servers`` target list goes only to the endpoints
        owning those workers, trimmed to each one's subset; a frame
        without one (stats, jitter, clear-jitter) goes to every endpoint.
        A target no endpoint hosts is a :class:`LiveTransportError`, raised
        before any endpoint is sent anything.
        """
        if frame.get("t") != "admin":
            raise ValueError("admin frames must have t='admin'")
        servers = frame.get("servers")
        unhosted = [s for s in servers or () if int(s) not in self.worker_links]
        if unhosted:
            raise LiveTransportError(
                f"admin {frame.get('cmd')!r} targets workers {unhosted}, "
                "which no endpoint hosts"
            )
        for link in self.links:
            if servers is None:
                link.send(frame)
                continue
            local = [s for s in servers if self.worker_links.get(int(s)) is link]
            if not local:
                continue
            trimmed = dict(frame)
            trimmed["servers"] = local
            link.send(trimmed)

    def report_bus(
        self, reporter: str, snapshot: _t.Mapping[str, _t.Any]
    ) -> None:
        """Push one client-side BusSnapshot to every endpoint, fire-and-forget
        (no ``servers`` key: the fan-out reaches the whole cluster); each
        server keeps the newest per reporter in its ``stats`` frame for as
        long as this connection lives."""
        self.admin(
            {
                "t": "admin",
                "cmd": "bus-report",
                "reporter": reporter,
                "snapshot": dict(snapshot),
            }
        )

    async def fetch_stats(self) -> _t.Dict[str, _t.Any]:
        """Query every endpoint's ``stats`` frame; return the merged one.

        An endpoint that accepts the query but does not answer within
        :data:`QUERY_TIMEOUT_S` is a :class:`LiveTransportError` naming it.
        """
        waiting = self._stats_waiters
        futures: _t.Dict[Endpoint, "asyncio.Future[_t.Dict[str, _t.Any]]"] = {}
        for link in self.links:
            endpoint = link.endpoint
            futures[endpoint] = self._loop.create_future()
            waiting.setdefault(endpoint, []).append(futures[endpoint])
        self.admin({"t": "admin", "cmd": "stats"})
        try:
            replies = await asyncio.wait_for(
                asyncio.gather(*futures.values()), QUERY_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            silent = [e for e, future in futures.items() if future in waiting[e]]
            for endpoint in silent:
                waiting[endpoint].remove(futures[endpoint])
            raise LiveTransportError(
                f"no reply to 'stats' from {silent[0][0]}:{silent[0][1]} "
                f"within {QUERY_TIMEOUT_S:g} s"
            ) from None
        return self._merge_stats(replies)

    @staticmethod
    def _merge_stats(
        replies: _t.Sequence[_t.Dict[str, _t.Any]]
    ) -> _t.Dict[str, _t.Any]:
        """One cluster-wide frame with the keys of a single server's: the
        scalars add up, worker entries concatenate by id, and the newest
        snapshot per reporter wins."""
        merged: _t.Dict[str, _t.Any] = {"t": "stats"}
        for key, value in replies[0].items():
            if isinstance(value, (int, float)):
                # Every scalar adds up but the model clocks, which start at
                # each process's serving start: the furthest one along.
                across = [reply.get(key, 0) for reply in replies]
                merged[key] = max(across) if key == "uptime_model_s" else sum(across)
        merged["workers"] = sorted(
            (worker for reply in replies for worker in reply.get("workers", [])),
            key=lambda worker: worker.get("worker", 0),
        )
        merged["client_bus"] = {}
        for reply in replies:
            merge_reports(merged["client_bus"], reply.get("client_bus") or {})
        return merged

    # -- inbound frames -------------------------------------------------------
    def _handle_frame(self, endpoint: Endpoint, frame: _t.Dict[str, _t.Any]) -> None:
        """Everything but ``res``: congestion and the control plane."""
        kind = frame.get("t")
        if kind == "congestion":
            self.congestion_signals += 1
            handler = self._handlers.get(CONTROLLER_ADDRESS)
            if handler is not None:  # strategies without a controller drop it
                handler(
                    CongestionSignal(
                        server_id=int(frame["server"]),
                        time=self.clock.now,
                        overload_ratio=float(frame["ratio"]),
                    )
                )
        elif kind == "stats":
            waiters = self._stats_waiters.get(endpoint)
            if waiters:
                future = waiters.pop(0)
                if not future.done():
                    future.set_result(frame)
        elif kind == "admin-ack":
            pass  # fault commands are fire-and-forget
        elif kind == "error":
            self.fail(
                LiveTransportError(f"service error: {frame.get('error')!r}")
            )
        else:
            self.fail(LiveTransportError(f"unexpected frame {frame!r}"))

    def _on_res(
        self,
        rid: int,
        server_id: int,
        queue_wait: float,
        service: float,
        queued: int,
        in_service: int,
        ewma: float,
    ) -> None:
        request = self._pending.pop(rid, None)
        if request is None:
            self.fail(LiveTransportError(f"result for unknown wire id {rid}"))
            return
        now = self.clock.now
        # Reconstruct the timestamp trail from wire durations: durations
        # are clock-offset-free, so client and server clocks never need to
        # agree on an epoch.
        request.completed_at = now
        request.service_start_at = now - service
        request.enqueued_at = request.service_start_at - queue_wait
        self._backlog[server_id] = float(queued + in_service)
        self.responses_received += 1
        handler = self._handlers.get(client_address(request.client_id))
        if handler is None:
            self.fail(
                LiveTransportError(
                    f"response for unregistered client {request.client_id}"
                )
            )
            return
        feedback = ServerFeedback(server_id, queued, in_service, ewma)
        handler(ResponseMessage(request, feedback))

    # -- outcome and teardown ----------------------------------------------------
    def finish(self) -> None:
        """The run completed: resolve :attr:`outcome` (unless it failed first)."""
        if not self.outcome.done():
            self.outcome.set_result(None)

    def fail(self, exc: BaseException) -> None:
        """Fail :attr:`outcome` with ``exc`` (the first failure wins)."""
        if not self.outcome.done():
            self.outcome.set_exception(exc)

    async def wait(self, timeout: float, progress: _t.Callable[[], str]) -> None:
        """Wait for :attr:`outcome`: return once the run finished, raise
        what failed it, or -- after ``timeout`` wall seconds -- a
        :class:`LiveTransportError` saying how far ``progress()`` it got."""
        try:
            await asyncio.wait_for(self.outcome, timeout)
        except asyncio.TimeoutError:
            raise LiveTransportError(
                f"live run timed out after {timeout:.0f}s wall: {progress()}"
            ) from None

    def backlog_depths(self) -> _t.List[float]:
        """Per-server latest piggybacked backlog, dense over the id space.

        Servers that have not responded yet (or never will: crashed)
        report their last-known value, 0.0 before any response -- the
        same optimistic default the strategies' feedback trackers use.
        """
        n_servers = int(self.ack.get("n_servers", 0))
        return [self._backlog.get(s, 0.0) for s in range(n_servers)]

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    def io_counters(self) -> _t.Dict[str, int]:
        """Client-side send/receive totals across the links (the syscall ledger)."""
        return {
            "frames_sent": sum(link.out.frames_sent for link in self.links),
            "bytes_sent": sum(link.out.bytes_sent for link in self.links),
            "writes": sum(link.out.writes for link in self.links),
            "frames_received": sum(link.frames_read for link in self.links),
        }

    async def close(self) -> None:
        """Flush queued frames (teardown sends fault-revert admin commands
        that must reach the server) -- unless the run failed, in which case
        there is nobody left to flush to -- and close every link."""
        outcome = self.outcome
        failed = (
            outcome.done() and not outcome.cancelled() and outcome.exception() is not None
        )
        outcome.cancel()  # a run abandoned before its outcome: nobody waits now
        self.clock.cancel_all()  # its error funnel points back at this transport
        for link in self.links:
            await link.close(flush_timeout=0.0 if failed else 1.0)
