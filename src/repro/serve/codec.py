"""The v2 binary wire codec: struct-packed data-plane frames.

Version 2 of the live protocol keeps v1's outer framing (a 4-byte
big-endian length prefix, ``MAX_FRAME_BYTES`` cap) and replaces the JSON
payload with a compact binary form.  The first payload byte is a frame
*tag*; the three data-plane frames that dominate the wire -- ``op``,
``res`` and ``congestion`` -- are fixed-layout little-endian structs,
while the control plane (handshake, admin, stats, errors) stays JSON
behind a dedicated tag, so irregular, rarely-sent frames keep their
flexibility without taxing the hot path.

Size ledger (the reason v2 exists; also in ``docs/performance.md``):

=============  ==========  ============  =======
frame          v1 JSON     v2 binary     shrink
=============  ==========  ============  =======
``op``         ~95 bytes   24 + 8/prio   ~2.4x
``res``        ~150 bytes  41 bytes      ~3.7x
``congestion`` ~60 bytes   15 bytes      ~4x
=============  ==========  ============  =======

Both codecs expose the same surface -- ``encode(frame) -> bytes`` (length
prefix included) and ``decode(buf, start, end, at) -> dict`` -- and decode
back to the *same dict shapes* v1 produces, so everything above the codec
(server dispatch, transport reassembly, the fault port) is
version-agnostic.  ``at`` is the absolute stream offset of the payload,
threaded into every :class:`ProtocolError` so a corrupt frame reports
*where* in the byte stream it sat.

Decoding uses ``struct.unpack_from`` directly against the connection's
receive buffer (a ``bytearray``) at frame offsets -- no per-frame slice
copies on the binary path.
"""

from __future__ import annotations

import json
import struct
import typing as _t

from .protocol import MAX_FRAME_BYTES, ProtocolError, _LENGTH

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
_PRIO = struct.Struct("<d")
_TRACE = struct.Struct("<Q")  # 64-bit trace context, appended to the op
_RES = struct.Struct("<IHddIHd")  # rid, server, queue_wait, service, q, s, ew
_CONGESTION = struct.Struct("<Hd")  # server, ratio

#: Hard field bounds of the packed layouts (validated on encode so a bad
#: value raises :class:`ProtocolError` instead of ``struct.error``).
_U16 = 1 << 16
_U32 = 1 << 32
_I64 = 1 << 63
_U64 = 1 << 64


class JsonCodec:
    """Protocol v1: length-prefixed compact JSON (the inspectable form)."""

    version = 1

    def encode(self, frame: _t.Mapping[str, _t.Any]) -> bytes:
        payload = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(payload)} bytes exceeds the cap")
        return _LENGTH.pack(len(payload)) + payload

    def decode(
        self,
        buf: _t.Union[bytes, bytearray],
        start: int,
        end: int,
        at: int = 0,
    ) -> _t.Dict[str, _t.Any]:
        try:
            frame = json.loads(bytes(buf[start:end]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"bad frame payload at byte {at}: {exc}") from exc
        if not isinstance(frame, dict) or "t" not in frame:
            raise ProtocolError(
                f"frame at byte {at} is not a typed object: {frame!r}"
            )
        return frame


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


class BinaryCodec:
    """Protocol v2: tagged struct-packed frames (the fast form)."""

    version = 2

    # -- encode ---------------------------------------------------------------
    def encode(self, frame: _t.Mapping[str, _t.Any]) -> bytes:
        kind = frame.get("t")
        if kind == "op":
            trace = frame.get("trace")
            if trace is not None:
                return self.encode_op_traced(
                    frame["rid"],
                    frame["server"],
                    frame["key"],
                    frame["size"],
                    frame["prio"],
                    trace,
                )
            return self.encode_op(
                frame["rid"],
                frame["server"],
                frame["key"],
                frame["size"],
                frame["prio"],
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
            _check(0 <= server < _U16, f"congestion server {server} out of range")
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
    ) -> bytes:
        """Fast path used by the transport and the firehose per request.

        One combined bounds test and one preallocated buffer: this runs
        once per op, so it avoids the per-field ``_check`` calls and the
        chained concatenations of the general path.
        """
        n_prio = len(priority)
        if not (
            0 <= rid < _U32
            and 0 <= server < _U16
            and -_I64 <= key < _I64
            and 0 <= size < _U32
            and n_prio < 256
        ):
            self._op_bounds_error(rid, server, key, size, n_prio)
        frame = bytearray(5 + _OP_HEAD.size + n_prio * _PRIO.size)
        _LENGTH.pack_into(frame, 0, len(frame) - 4)
        frame[4] = TAG_OP
        _OP_HEAD.pack_into(frame, 5, rid, server, key, size, n_prio)
        offset = 5 + _OP_HEAD.size
        for p in priority:
            _PRIO.pack_into(frame, offset, p)
            offset += 8
        return bytes(frame)

    def encode_op_traced(
        self,
        rid: int,
        server: int,
        key: int,
        size: int,
        priority: _t.Sequence[float],
        trace: int,
    ) -> bytes:
        """Fast path for a sampled op: the op layout plus a 64-bit context."""
        n_prio = len(priority)
        if not (
            0 <= rid < _U32
            and 0 <= server < _U16
            and -_I64 <= key < _I64
            and 0 <= size < _U32
            and n_prio < 256
        ):
            self._op_bounds_error(rid, server, key, size, n_prio)
        _check(0 <= trace < _U64, f"op trace context {trace} out of range")
        frame = bytearray(5 + _OP_HEAD.size + n_prio * _PRIO.size + _TRACE.size)
        _LENGTH.pack_into(frame, 0, len(frame) - 4)
        frame[4] = TAG_OP_TRACE
        _OP_HEAD.pack_into(frame, 5, rid, server, key, size, n_prio)
        offset = 5 + _OP_HEAD.size
        for p in priority:
            _PRIO.pack_into(frame, offset, p)
            offset += 8
        _TRACE.pack_into(frame, offset, trace)
        return bytes(frame)

    @staticmethod
    def _op_bounds_error(
        rid: int, server: int, key: int, size: int, n_prio: int
    ) -> None:
        _check(0 <= rid < _U32, f"op rid {rid} out of range")
        _check(0 <= server < _U16, f"op server {server} out of range")
        _check(-_I64 <= key < _I64, f"op key {key} out of range")
        _check(0 <= size < _U32, f"op size {size} out of range")
        raise ProtocolError(f"op priority tuple of {n_prio} too long")

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
        if not (
            0 <= rid < _U32
            and 0 <= server < _U16
            and 0 <= queue_length < _U32
            and 0 <= in_service < _U16
        ):
            self._res_bounds_error(rid, server, queue_length, in_service)
        frame = bytearray(5 + _RES.size)
        _LENGTH.pack_into(frame, 0, _RES.size + 1)
        frame[4] = TAG_RES
        _RES.pack_into(
            frame,
            5,
            rid,
            server,
            float(queue_wait),
            float(service),
            queue_length,
            in_service,
            float(ewma_service),
        )
        return bytes(frame)

    @staticmethod
    def _res_bounds_error(
        rid: int, server: int, queue_length: int, in_service: int
    ) -> None:
        _check(0 <= rid < _U32, f"res rid {rid} out of range")
        _check(0 <= server < _U16, f"res server {server} out of range")
        _check(
            0 <= queue_length < _U32, f"res queue length {queue_length} out of range"
        )
        raise ProtocolError(f"res in_service {in_service} out of range")

    # -- decode ---------------------------------------------------------------
    def decode(
        self,
        buf: _t.Union[bytes, bytearray],
        start: int,
        end: int,
        at: int = 0,
    ) -> _t.Dict[str, _t.Any]:
        length = end - start
        if length < 1:
            raise ProtocolError(f"empty binary frame at byte {at}")
        tag = buf[start]
        body = start + 1
        if tag == TAG_OP:
            if length - 1 < _OP_HEAD.size:
                raise ProtocolError(
                    f"op frame truncated at byte {at}: {length - 1} of "
                    f"{_OP_HEAD.size} header bytes"
                )
            rid, server, key, size, n_prio = _OP_HEAD.unpack_from(buf, body)
            want = _OP_HEAD.size + n_prio * _PRIO.size
            if length - 1 != want:
                raise ProtocolError(
                    f"op frame at byte {at} carries {length - 1} bytes but "
                    f"declares {n_prio} priorities ({want} bytes)"
                )
            offset = body + _OP_HEAD.size
            # A tuple, not a list: `priority_from_wire` trusts tuples from
            # this decoder (the doubles are valid by construction), so the
            # server skips re-validating every element per op.
            priority = tuple(
                _PRIO.unpack_from(buf, offset + i * _PRIO.size)[0]
                for i in range(n_prio)
            )
            return {
                "t": "op",
                "rid": rid,
                "server": server,
                "key": key,
                "size": size,
                "prio": priority,
            }
        if tag == TAG_OP_TRACE:
            if length - 1 < _OP_HEAD.size:
                raise ProtocolError(
                    f"traced op frame truncated at byte {at}: {length - 1} of "
                    f"{_OP_HEAD.size} header bytes"
                )
            rid, server, key, size, n_prio = _OP_HEAD.unpack_from(buf, body)
            want = _OP_HEAD.size + n_prio * _PRIO.size + _TRACE.size
            if length - 1 != want:
                raise ProtocolError(
                    f"traced op frame at byte {at} carries {length - 1} bytes "
                    f"but declares {n_prio} priorities ({want} bytes)"
                )
            offset = body + _OP_HEAD.size
            priority = tuple(
                _PRIO.unpack_from(buf, offset + i * _PRIO.size)[0]
                for i in range(n_prio)
            )
            (trace,) = _TRACE.unpack_from(buf, offset + n_prio * _PRIO.size)
            return {
                "t": "op",
                "rid": rid,
                "server": server,
                "key": key,
                "size": size,
                "prio": priority,
                "trace": trace,
            }
        if tag == TAG_RES:
            if length - 1 != _RES.size:
                raise ProtocolError(
                    f"res frame at byte {at}: {length - 1} bytes, "
                    f"expected {_RES.size}"
                )
            rid, server, queue_wait, service, q, s, ew = _RES.unpack_from(buf, body)
            return {
                "t": "res",
                "rid": rid,
                "server": server,
                "queue_wait": queue_wait,
                "service": service,
                "fb": {"q": q, "s": s, "ew": ew},
            }
        if tag == TAG_CONGESTION:
            if length - 1 != _CONGESTION.size:
                raise ProtocolError(
                    f"congestion frame at byte {at}: {length - 1} bytes, "
                    f"expected {_CONGESTION.size}"
                )
            server, ratio = _CONGESTION.unpack_from(buf, body)
            return {"t": "congestion", "server": server, "ratio": ratio}
        if tag == TAG_JSON:
            try:
                frame = json.loads(bytes(buf[body:end]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"bad control frame at byte {at}: {exc}"
                ) from exc
            if not isinstance(frame, dict) or "t" not in frame:
                raise ProtocolError(
                    f"control frame at byte {at} is not a typed object: {frame!r}"
                )
            return frame
        raise ProtocolError(
            f"unknown binary frame tag 0x{tag:02x} at byte {at}"
        )


#: Singleton codec instances (both are stateless).
JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()

_CODECS: _t.Dict[int, _t.Union[JsonCodec, BinaryCodec]] = {
    1: JSON_CODEC,
    2: BINARY_CODEC,
}


def codec_for(version: int) -> _t.Union[JsonCodec, BinaryCodec]:
    """The codec realizing one negotiated protocol version."""
    codec = _CODECS.get(version)
    if codec is None:
        raise ProtocolError(f"unsupported protocol version {version!r}")
    return codec
