"""Unit tests for the live wire protocol (framing, limits, decoding)."""

import asyncio
import struct

import pytest
from wire_helpers import read_frame

from repro.serve.codec import BINARY_CODEC
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    check_hello,
    encode_frame,
    hello_frame,
)


def run(coro):
    return asyncio.run(coro)


def reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


class TestFraming:
    def test_round_trip(self):
        frame = {"t": "op", "rid": 7, "prio": [1.5, 2.0], "key": 42}

        async def check():
            return await read_frame(reader_with(encode_frame(frame)))

        assert run(check()) == frame

    def test_multiple_frames_in_sequence(self):
        frames = [{"t": "a", "i": i} for i in range(3)]
        blob = b"".join(encode_frame(f) for f in frames)

        async def check():
            reader = reader_with(blob)
            out = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return out
                out.append(frame)

        assert run(check()) == frames

    def test_clean_eof_returns_none(self):
        async def check():
            return await read_frame(reader_with(b""))

        assert run(check()) is None

    def test_truncated_header_raises(self):
        async def check():
            await read_frame(reader_with(b"\x00\x00"))

        with pytest.raises(ProtocolError, match="mid-header"):
            run(check())

    def test_truncated_payload_raises(self):
        data = encode_frame({"t": "x"})[:-2]

        async def check():
            await read_frame(reader_with(data))

        with pytest.raises(ProtocolError, match="mid-frame"):
            run(check())

    def test_oversized_declared_length_raises(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)

        async def check():
            await read_frame(reader_with(header + b"x"))

        with pytest.raises(ProtocolError, match="exceeds the cap"):
            run(check())

    def test_non_json_payload_raises(self):
        data = struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc"

        async def check():
            await read_frame(reader_with(data))

        with pytest.raises(ProtocolError, match="bad frame payload"):
            run(check())

    def test_untyped_frame_raises(self):
        data = struct.pack(">I", 2) + b"{}"

        async def check():
            await read_frame(reader_with(data))

        with pytest.raises(ProtocolError, match="not a typed object"):
            run(check())


def over_the_wire(priority):
    """A priority tuple after a trip in an op frame."""
    wire = BINARY_CODEC.encode_op(1, 0, 1, 1, priority)
    return BINARY_CODEC.decode(wire, 4, len(wire))["prio"]


class TestPriorities:
    def test_round_trip(self):
        priority = (1.0, 2.5, 3.0)
        assert over_the_wire(priority) == priority

    def test_ordering_survives_wire(self):
        a, b = (1.0, 9.0), (2.0, 0.0)
        assert (a < b) == (over_the_wire(a) < over_the_wire(b))


class TestHello:
    def test_the_hello_asks_for_the_binary_protocol(self):
        assert hello_frame() == {"t": "hello", "proto": 1, "max_proto": 2}
        assert hello_frame(congestion=False)["congestion"] is False
        check_hello(hello_frame())
        check_hello({"t": "hello", "proto": 1, "max_proto": 3})  # acked as 2

    @pytest.mark.parametrize(
        "hello, match",
        [
            ({"t": "hello", "proto": 1}, "send max_proto 2"),
            ({"t": "hello", "proto": 1, "max_proto": 1}, "send max_proto 2"),
            ({"t": "hello", "proto": 1, "max_proto": True}, "send max_proto 2"),
            ({"t": "hello", "proto": 1, "max_proto": "2"}, "send max_proto 2"),
            ({"t": "hello", "proto": 2, "max_proto": 2}, "version mismatch"),
        ],
    )
    def test_any_other_hello_is_refused_by_name(self, hello, match):
        with pytest.raises(ProtocolError, match=match):
            check_hello(hello)
