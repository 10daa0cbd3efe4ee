"""The wire codecs: the binary data plane and the JSON control plane.

Both keep the outer framing of :mod:`repro.serve.protocol` (a 4-byte
big-endian length prefix, ``MAX_FRAME_BYTES`` cap).  The binary codec is
the one data plane: the first payload byte is a frame *tag*; the three
frames that dominate the wire -- ``op``, ``res`` and ``congestion`` -- are
fixed-layout little-endian structs, while the control plane (handshake,
admin, stats, errors) stays JSON behind a dedicated tag, so irregular,
rarely-sent frames keep their flexibility without taxing the hot path.
The JSON codec is a connection's form before the handshake: plain JSON
payloads, control frames only (``nc`` + ``jq`` suffice to poke a server).

Size ledger (``docs/performance.md`` has the measurements):

=============  ============  ===========
frame          binary        as JSON
=============  ============  ===========
``op``         24 + 8/prio   ~95 bytes
``res``        41 bytes      ~150 bytes
``congestion`` 15 bytes      ~60 bytes
=============  ============  ===========

Both codecs expose ``encode(frame)`` and ``decode(buf, start, end, at)``,
which speak frame dicts: the control plane, the benchmarks' microtimers
and the fuzz suites use them.  ``deliver(sink, buf, start, end, at)``
parses one frame and calls the :class:`~repro.serve.protocol.FrameSink`
handler for its kind.  The JSON codec hands every frame to ``on_frame``.
The binary codec hands an ``op`` or a ``res`` to ``on_op``/``on_res`` as
typed positional fields with no dict in between (one ``unpack_from`` at
the frame offset, straight out of the receive buffer) and everything else
to ``on_frame`` as the decoded dict, so nothing above it re-validates a
field.  ``at`` is the absolute stream offset of the payload, threaded
into every :class:`ProtocolError` so a corrupt frame reports *where* it
sat.

The binary encoders ``encode_op``/``encode_res`` are the mirror image, one
``pack`` per frame: each ``op`` arity (traced and not) and the ``res``
have a precomputed *whole-frame* layout, so encoding is one call and one
allocation, and a value the layout cannot hold is explained from the
failed ``pack`` as a :class:`ProtocolError` (never a ``struct.error``).
"""

from __future__ import annotations

import json
import struct
import typing as _t

from .protocol import (
    MAX_FRAME_BYTES,
    FrameSink,
    ProtocolError,
    _LENGTH,
    encode_frame,
    parse_json_frame,
)

#: Frame tags (first payload byte) of the binary protocol.
TAG_OP = 0x01
TAG_RES = 0x02
TAG_CONGESTION = 0x03
#: An op carrying a 64-bit trace context (sampled request).  A separate
#: tag rather than an optional suffix: ``TAG_OP`` decode enforces an
#: exact length, which is what catches truncation, so the traced layout
#: gets its own exact length instead of weakening that check.
TAG_OP_TRACE = 0x04
#: Control-plane frames (hello, hello-ack, admin, admin-ack, stats, error)
#: travel as JSON behind this tag.
TAG_JSON = 0x7F

_OP_HEAD = struct.Struct("<IHqIB")  # rid, server, key, size, n_priorities
#: The priority tuple's layout, one Struct per arity (the count is a u8).
_PRIO = tuple(struct.Struct("<%dd" % n) for n in range(256))
_TRACE = struct.Struct("<Q")  # 64-bit trace context, appended to the op
_RES = struct.Struct("<IHddIHd")  # rid, server, queue_wait, service, q, s, ew
_CONGESTION = struct.Struct("<Hd")  # server, ratio
_RES_FRAME = 1 + _RES.size  # tag byte + layout: the only legal res payload


def _frame_layout(*parts: struct.Struct) -> _t.Tuple[_t.Callable[..., bytes], bytes]:
    """``(pack, prefix)`` of a whole-frame *encode* layout: length prefix,
    tag byte, then ``parts`` (decode layouts, above) back to back, from one
    ``pack``.  The big-endian length is a constant of the layout, so it
    rides as a ``4s`` field in front of the little-endian rest."""
    layout = struct.Struct("<4sB" + "".join(part.format[1:] for part in parts))
    return layout.pack, _LENGTH.pack(layout.size - 4)


#: One whole-frame layout per priority arity, untraced and traced.
_OP_FRAME = tuple(_frame_layout(_OP_HEAD, prio) for prio in _PRIO)
_OP_TRACE_FRAME = tuple(_frame_layout(_OP_HEAD, prio, _TRACE) for prio in _PRIO)
_PACK_RES, _RES_PREFIX = _frame_layout(_RES)

#: Hard field bounds of the packed layouts (a failed ``pack`` is traced back
#: to the field that broke them, as a :class:`ProtocolError`).
_U16 = 1 << 16
_U32 = 1 << 32
_I64 = 1 << 63
_U64 = 1 << 64


def _op_frame(
    rid: int,
    server: int,
    key: int,
    size: int,
    priority: _t.Sequence[float],
    trace: _t.Optional[int] = None,
) -> _t.Dict[str, _t.Any]:
    """The dict shape of an op (``trace`` only when sampled)."""
    frame = {
        "t": "op",
        "rid": rid,
        "server": server,
        "key": key,
        "size": size,
        "prio": priority,
    }
    if trace is not None:
        frame["trace"] = trace
    return frame


def _res_frame(
    rid: int,
    server: int,
    queue_wait: float,
    service: float,
    queue_length: int,
    in_service: int,
    ewma_service: float,
) -> _t.Dict[str, _t.Any]:
    """The dict shape of a res."""
    return {
        "t": "res",
        "rid": rid,
        "server": server,
        "queue_wait": queue_wait,
        "service": service,
        "fb": {"q": queue_length, "s": in_service, "ew": ewma_service},
    }


class JsonCodec:
    """Length-prefixed compact JSON: the control plane before the handshake."""

    encode = staticmethod(encode_frame)

    def decode(
        self,
        buf: _t.Union[bytes, bytearray],
        start: int,
        end: int,
        at: int = 0,
    ) -> _t.Dict[str, _t.Any]:
        return parse_json_frame(bytes(buf[start:end]), at)

    def deliver(
        self,
        sink: FrameSink,
        buf: _t.Union[bytes, bytearray],
        start: int,
        end: int,
        at: int = 0,
    ) -> None:
        sink.on_frame(self.decode(buf, start, end, at))


def _out_of_range(kind: str, *fields: _t.Tuple[str, _t.Any, int, int]) -> None:
    """Name the first integer ``(name, value, lo, hi)`` outside
    ``lo <= value < hi`` (a value of another type is ``pack``'s to name)."""
    for name, value, lo, hi in fields:
        if isinstance(value, int) and not lo <= value < hi:
            raise ProtocolError(f"{kind} {name} {value} out of range")


class BinaryCodec:
    """Tagged struct-packed frames: the data plane (protocol 2)."""

    # -- encode ---------------------------------------------------------------
    def encode(self, frame: _t.Mapping[str, _t.Any]) -> bytes:
        kind = frame.get("t")
        if kind == "op":
            return self.encode_op(
                frame["rid"],
                frame["server"],
                frame["key"],
                frame["size"],
                frame["prio"],
                frame.get("trace"),
            )
        if kind == "res":
            fb = frame.get("fb", {})
            return self.encode_res(
                frame["rid"],
                frame["server"],
                frame["queue_wait"],
                frame["service"],
                fb.get("q", 0),
                fb.get("s", 0),
                fb.get("ew", 0.0),
            )
        if kind == "congestion":
            server = int(frame["server"])
            _out_of_range("congestion", ("server", server, 0, _U16))
            payload = bytes((TAG_CONGESTION,)) + _CONGESTION.pack(
                server, float(frame["ratio"])
            )
            return _LENGTH.pack(len(payload)) + payload
        # Control plane: JSON behind a tag byte.
        body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        if len(body) + 1 > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(body)} bytes exceeds the cap")
        return _LENGTH.pack(len(body) + 1) + bytes((TAG_JSON,)) + body

    def encode_op(
        self,
        rid: int,
        server: int,
        key: int,
        size: int,
        priority: _t.Sequence[float],
        trace: _t.Optional[int] = None,
    ) -> bytes:
        """Fast path used by the transport and the firehose per request.

        One ``pack`` of the arity's whole-frame layout; the bounds are
        only looked at when it fails.  A sampled op (``trace`` set) is the
        same layout plus a 64-bit context, under its own tag.
        """
        n_prio = len(priority)
        try:
            if trace is None:
                pack, prefix = _OP_FRAME[n_prio]
                return pack(prefix, TAG_OP, rid, server, key, size, n_prio, *priority)
            pack, prefix = _OP_TRACE_FRAME[n_prio]
            return pack(
                prefix, TAG_OP_TRACE, rid, server, key, size, n_prio, *priority, trace
            )
        except (struct.error, IndexError) as exc:
            _out_of_range(
                "op",
                ("rid", rid, 0, _U32),
                ("server", server, 0, _U16),
                ("key", key, -_I64, _I64),
                ("size", size, 0, _U32),
                ("priority count", n_prio, 0, 256),
                ("trace context", trace, 0, _U64),
            )
            raise ProtocolError(f"op cannot be packed: {exc}") from exc

    def encode_res(
        self,
        rid: int,
        server: int,
        queue_wait: float,
        service: float,
        queue_length: int,
        in_service: int,
        ewma_service: float,
    ) -> bytes:
        """Fast path used by the server's completion callback."""
        try:
            return _PACK_RES(
                _RES_PREFIX,
                TAG_RES,
                rid,
                server,
                queue_wait,
                service,
                queue_length,
                in_service,
                ewma_service,
            )
        except struct.error as exc:
            _out_of_range(
                "res",
                ("rid", rid, 0, _U32),
                ("server", server, 0, _U16),
                ("queue length", queue_length, 0, _U32),
                ("in_service", in_service, 0, _U16),
            )
            raise ProtocolError(f"res cannot be packed: {exc}") from exc

    # -- decode ---------------------------------------------------------------
    def deliver(
        self,
        sink: FrameSink,
        buf: _t.Union[bytes, bytearray],
        start: int,
        end: int,
        at: int = 0,
    ) -> _t.Any:
        """Parse one frame; call the sink handler for its kind (and hand
        back what it returned, which is how :meth:`decode` is built)."""
        tag = buf[start] if end > start else -1
        if tag == TAG_RES:
            if end - start != _RES_FRAME:
                self._bad_length("res", _RES, end - start - 1, at)
            return sink.on_res(*_RES.unpack_from(buf, start + 1))
        if tag == TAG_OP or tag == TAG_OP_TRACE:
            traced = tag == TAG_OP_TRACE
            body = start + 1
            have = end - body
            if have < _OP_HEAD.size:
                raise ProtocolError(
                    f"{'traced ' if traced else ''}op frame truncated at byte "
                    f"{at}: {have} of {_OP_HEAD.size} header bytes"
                )
            rid, server, key, size, n_prio = _OP_HEAD.unpack_from(buf, body)
            want = _OP_HEAD.size + 8 * n_prio + (_TRACE.size if traced else 0)
            if have != want:
                raise ProtocolError(
                    f"{'traced ' if traced else ''}op frame at byte {at} carries "
                    f"{have} bytes but declares {n_prio} priorities ({want} bytes)"
                )
            offset = body + _OP_HEAD.size
            # One unpack for the whole tuple; the doubles are valid by
            # construction, so nothing above re-validates them per op.
            priority = _PRIO[n_prio].unpack_from(buf, offset)
            trace = _TRACE.unpack_from(buf, offset + 8 * n_prio)[0] if traced else None
            return sink.on_op(rid, server, key, size, priority, trace)
        body = start + 1
        if tag == TAG_CONGESTION:
            if end - body != _CONGESTION.size:
                self._bad_length("congestion", _CONGESTION, end - body, at)
            server, ratio = _CONGESTION.unpack_from(buf, body)
            return sink.on_frame({"t": "congestion", "server": server, "ratio": ratio})
        if tag == TAG_JSON:
            return sink.on_frame(parse_json_frame(bytes(buf[body:end]), at))
        if tag < 0:
            raise ProtocolError(f"empty binary frame at byte {at}")
        raise ProtocolError(
            f"unknown binary frame tag 0x{tag:02x} at byte {at}"
        )

    @staticmethod
    def _bad_length(kind: str, layout: struct.Struct, have: int, at: int) -> None:
        raise ProtocolError(
            f"{kind} frame at byte {at}: {have} bytes, expected {layout.size}"
        )

    def decode(
        self,
        buf: _t.Union[bytes, bytearray],
        start: int,
        end: int,
        at: int = 0,
    ) -> _t.Dict[str, _t.Any]:
        return self.deliver(_AS_DICT, buf, start, end, at)


class _AsDict(FrameSink):
    """The sink behind :meth:`BinaryCodec.decode`: rebuilds the frame dicts
    from the typed fields."""

    __slots__ = ()
    on_op = staticmethod(_op_frame)  # type: ignore[assignment]
    on_res = staticmethod(_res_frame)  # type: ignore[assignment]

    def on_frame(self, frame):  # type: ignore[no-untyped-def,override]
        return frame


_AS_DICT = _AsDict()

#: Singleton codec instances (both are stateless).
JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()
