"""Stream-API helpers for tests that play a hand-rolled peer.

``src/`` reads sockets through ``asyncio.Protocol`` callbacks only; a test
that wants to be the *other* end of a connection, one frame at a time over
``asyncio.open_connection``, uses these (moved here from
``repro.serve.protocol`` / ``repro.loadgen.transport`` when their last
caller under ``src/`` went).
"""

import asyncio
import struct

from repro.loadgen import LiveTransportError
from repro.serve.codec import JSON_CODEC
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MAX_PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    hello_frame,
)

_LENGTH = struct.Struct(">I")


async def read_frame(reader, codec=JSON_CODEC):
    """Read one frame in ``codec``; ``None`` on clean EOF (peer closed
    between frames).

    Takes exactly one frame's bytes off the ``StreamReader`` and never
    over-reads.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} of 4 bytes)"
        ) from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame length {length} exceeds the cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} bytes)"
        ) from exc
    return codec.decode(payload, 0, length)


async def handshake(reader, writer, congestion=True):
    """Exchange hello/hello-ack (always in JSON); returns the ack.  Every
    later frame on the connection is binary."""
    writer.write(encode_frame(hello_frame(congestion)))
    await writer.drain()
    ack = await read_frame(reader)
    if ack is None:
        raise LiveTransportError("server closed the connection during handshake")
    if ack.get("t") != "hello-ack":
        raise LiveTransportError(f"unexpected handshake reply {ack!r}")
    assert ack["proto"] == MAX_PROTOCOL_VERSION
    return ack
