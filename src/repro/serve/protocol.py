"""The live wire protocol: length-prefixed frames, one data plane.

One frame is a 4-byte big-endian length followed by that many payload
bytes.  A connection's payload encoding is one of two:

* **JSON** -- UTF-8 compact JSON, the form every connection starts in.
  It carries the control plane only: ``hello``, ``admin`` (``stats``,
  fault injection, ``bus-report``) and their replies.
* **binary** -- tagged struct-packed frames (:mod:`repro.serve.codec`):
  the data plane (``op``/``res``/``congestion``) as fixed layouts, the
  control plane as JSON behind a tag byte.

The handshake
-------------
A client that wants the data plane sends ``hello`` in JSON with
``proto`` 1 (the handshake's own version) and ``max_proto`` 2.  The server
answers ``hello-ack`` with ``proto`` 2 -- still in JSON -- and *then*
switches the connection to the binary codec; the client switches when the
ack arrives, and sends nothing before it.  A ``hello`` without
``max_proto`` 2 is answered with one ``error`` frame and the connection
stays JSON.

A connection that never says ``hello`` is a JSON control-plane
connection, which is how to poke a server by hand: write
length-prefixed JSON ``admin`` frames -- ``{"t":"admin","cmd":"stats"}``
gets the ``stats`` frame back -- and read the length-prefixed JSON
replies.  An ``op`` on such a connection is answered with one ``error``
frame (op frames need the binary protocol) and the connection stays open.

Frame types (the ``t`` field)
-----------------------------
Client -> server:

``hello``       handshake: ``proto`` 1, ``max_proto`` 2, optional
                ``congestion`` opt-out (clients without a controller)
``op``          one key read: ``rid`` (wire id), ``server`` (worker id),
                ``key``, ``size`` (value bytes), ``prio`` (priority tuple),
                ``trace`` (64-bit context, sampled requests only)
``admin``       fault-injection and introspection commands (``cmd`` one of
                ``slowdown``, ``restore``, ``crash``, ``resume``,
                ``jitter``, ``clear-jitter``, ``bus-report``, ``stats``);
                the fault frames, which the simulation applies too, target
                ``servers`` (omitted: all) and carry a ``factor``, and
                ``jitter`` a ``sigma`` too

Server -> client:

``hello-ack``   handshake reply: ``proto`` 2, actual shape, the
                ``workers`` this endpoint hosts, time scale, calibration
``res``         completion of one ``op``: echoes ``rid``, carries the
                measured ``queue_wait``/``service`` (model seconds) and the
                piggybacked queue ``fb`` -- the same feedback the simulated
                servers attach (C3's input)
``congestion``  a worker's offered load exceeded capacity (credits input)
``stats``       reply to ``admin``/``stats``
``error``       the request could not be honored (bad frame, queue bound)

All durations and rates on the wire are *model seconds* (see
:mod:`repro.core.clock`), so a client never needs to know the server's
time scale to interpret them.

The receive and send paths
--------------------------
Both ends of a connection are an ``asyncio.Protocol``, a
:class:`FrameStream` that is its own :class:`FrameSink`: ``data_received``
appends the socket chunk and ``drain`` delivers every complete frame in it.
The callback that receives a socket chunk finishes it -- parse, then admit
or complete -- before it returns; what it sends is buffered by a
:class:`BatchWriter` and leaves in one ``write`` on the next loop turn.
"""

from __future__ import annotations

import asyncio
import json
import struct
import typing as _t

#: The handshake's own version: the ``proto`` of every ``hello``.
PROTOCOL_VERSION = 1

#: The binary data plane's version: a ``hello``'s ``max_proto``, the ack's
#: ``proto``.
MAX_PROTOCOL_VERSION = 2

#: Upper bound on a single frame (defense against garbage length prefixes).
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, oversized or out-of-order frame."""


def hello_frame(congestion: bool = True) -> _t.Dict[str, _t.Any]:
    """The client's handshake frame (always sent in JSON).

    ``congestion=False`` asks the server not to broadcast congestion
    frames on this connection (the firehose: it has no controller).
    """
    frame: _t.Dict[str, _t.Any] = {
        "t": "hello",
        "proto": PROTOCOL_VERSION,
        "max_proto": MAX_PROTOCOL_VERSION,
    }
    if not congestion:
        frame["congestion"] = False
    return frame


def check_hello(hello: _t.Mapping[str, _t.Any]) -> None:
    """Refuse (:class:`ProtocolError`) a ``hello`` that does not ask for the
    binary data plane, naming what it should have said."""
    if hello.get("proto") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client {hello.get('proto')!r}, "
            f"server {PROTOCOL_VERSION}"
        )
    raw = hello.get("max_proto")
    if type(raw) is not int or raw < MAX_PROTOCOL_VERSION:
        raise ProtocolError(
            f"hello asks for max_proto {raw!r}: op frames need the binary "
            f"protocol, send max_proto {MAX_PROTOCOL_VERSION}"
        )


def encode_frame(frame: _t.Mapping[str, _t.Any]) -> bytes:
    """Serialize one frame dict to its wire form."""
    payload = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the cap")
    return _LENGTH.pack(len(payload)) + payload


def parse_json_frame(payload: bytes, at: int = 0) -> _t.Dict[str, _t.Any]:
    """The typed object one JSON payload (found at stream byte ``at``) holds."""
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload at byte {at}: {exc}") from exc
    if not isinstance(frame, dict) or "t" not in frame:
        raise ProtocolError(f"frame at byte {at} is not a typed object: {frame!r}")
    return frame


def error_frame(message: str) -> _t.Dict[str, _t.Any]:
    return {"t": "error", "error": str(message)}


class FrameSink:
    """What :meth:`FrameStream.drain` delivers to: one method per frame kind.

    The binary codec delivers the data plane as *typed positional fields*
    -- no frame dict is built for an ``op`` or a ``res`` -- and everything
    else (handshake, admin, stats, congestion, errors) as the decoded dict;
    the JSON codec hands every frame to ``on_frame``.  A receiver
    overrides the kinds its peer may legitimately send; the defaults
    treat the rest as protocol violations.
    """

    __slots__ = ()

    def on_op(self, *fields: _t.Any) -> None:
        """``(rid, worker_id, key, size, priority tuple, trace or None)``."""
        raise ProtocolError("unexpected op frame")

    def on_res(self, *fields: _t.Any) -> None:
        """``(rid, server_id, queue_wait, service, queued, in_service, ewma)``."""
        raise ProtocolError("unexpected res frame")

    def on_frame(self, frame: _t.Dict[str, _t.Any]) -> None:
        raise ProtocolError(f"unexpected frame {frame!r}")


class FrameStream(asyncio.Protocol, FrameSink):
    """One end of a connection: a buffered, codec-switchable frame receiver
    (its own sink) and a coalescing :class:`BatchWriter`.

    ``data_received`` appends the socket chunk (one syscall can carry
    hundreds of pipelined frames) and the synchronous ``drain`` has the
    codec deliver every complete frame in the buffer -- no coroutine, dict
    or copy per frame.  ``codec`` is an attribute so the handshake can switch
    it between two frames of one buffer.  Byte positions survive
    compaction: a corrupt frame's :class:`ProtocolError` names its
    absolute stream offset.
    """

    #: The buffer-compaction threshold.
    CHUNK = 1 << 16

    def __init__(self, codec: _t.Any) -> None:
        self.codec = codec
        self._buf = bytearray()
        self._pos = 0
        #: Absolute stream offset of ``_buf[0]`` (survives compaction).
        self._base = 0
        #: Frames handed to the codec so far.
        self.frames_read = 0

    def connection_made(self, transport: _t.Any) -> None:
        self.out = BatchWriter(transport)
        self._lost = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc: _t.Optional[Exception]) -> None:
        self.out.closed = True
        self._lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._buf += data
        self.drain(self)

    def eof_received(self) -> None:
        """Clean between frames; inside one, a :class:`ProtocolError`."""
        avail = len(self._buf) - self._pos
        if avail:
            at, short = self._base + self._pos, avail < 4
            raise ProtocolError(
                f"connection closed mid-{'header' if short else 'frame'} at byte {at} "
                f"({avail} {'of 4 bytes' if short else 'bytes buffered'})"
            )

    def drain(self, sink: FrameSink) -> None:
        """Deliver every complete frame in the buffer to ``sink``.

        ``self.codec`` is re-read per frame: a ``hello`` / ``hello-ack``
        handler switches it mid-drain.  A raising frame is consumed, so
        the stream position stays consistent for the error report.
        """
        buf = self._buf
        pos = self._pos
        limit = len(buf)
        base = self._base
        unpack_from = _LENGTH.unpack_from
        try:
            while limit - pos >= 4:
                (length,) = unpack_from(buf, pos)
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"declared frame length {length} exceeds the cap"
                    )
                start = pos + 4
                end = start + length
                if end > limit:
                    break
                pos = end
                self.frames_read += 1
                self.codec.deliver(sink, buf, start, end, base + start)
        finally:
            if pos >= FrameStream.CHUNK:
                del buf[:pos]
                self._base = base + pos
                pos = 0
            self._pos = pos

    def send(self, frame: _t.Mapping[str, _t.Any]) -> None:
        """Queue one frame for delivery in this connection's codec."""
        self.out.send(self.codec.encode(frame))

    def shut(self) -> None:
        """Write what is queued and start closing."""
        self.out._flush()
        self.out.closed = True
        self.out.transport.close()

    async def close(self, flush_timeout: float = 1.0) -> None:
        """Flush what's queued, then tear the connection down: the transport
        gets ``flush_timeout`` seconds to push its buffer out; 0 skips the
        flush and drops whatever is still unsent."""
        if flush_timeout > 0:
            self.shut()
            await asyncio.wait({self._lost}, timeout=flush_timeout)
        self.out.closed = True
        if not self._lost.done():
            self.out.transport.abort()


class BatchWriter:
    """Coalesces frame writes: one ``write`` per event-loop turn.

    Senders append encoded frames synchronously (safe from callbacks);
    the first send of a turn arms one ``call_soon`` flush, which pushes
    everything accumulated by then in a single syscall -- most of the
    live path's syscall savings (``writes`` vs ``frames_sent`` is the
    measured ratio).  Backpressure is the transport's: what the socket
    cannot take waits in its buffer.
    """

    __slots__ = (
        "transport",
        "_loop",
        "_buf",
        "_armed",
        "closed",
        "bytes_sent",
        "writes",
        "frames_sent",
    )

    def __init__(self, transport: _t.Any) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        self._buf = bytearray()
        #: A flush is already scheduled for this loop turn.
        self._armed = False
        self.closed = False
        self.bytes_sent = 0
        self.writes = 0
        self.frames_sent = 0

    def send(self, data: bytes) -> None:
        """Queue one encoded frame for the next coalesced write."""
        if not self.closed:
            self._buf += data
            self.frames_sent += 1
            if not self._armed:
                self._armed = True
                self._loop.call_soon(self._flush)

    @property
    def pending(self) -> int:
        return len(self._buf)

    def _flush(self) -> None:
        self._armed = False
        if self._buf and not self.closed:
            data = self._buf
            self._buf = bytearray()
            self.transport.write(data)
            self.bytes_sent += len(data)
            self.writes += 1
