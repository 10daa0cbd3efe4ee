"""Unit tests for the live wire protocol (framing, limits, decoding)."""

import asyncio
import struct

import pytest
from wire_helpers import read_frame

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    priority_from_wire,
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


def priority_to_wire(priority):
    """Priority tuples travel as JSON arrays of numbers."""
    return [float(p) for p in priority]


class TestPriorities:
    def test_round_trip(self):
        priority = (1.0, 2.5, 3.0)
        assert priority_from_wire(priority_to_wire(priority)) == priority

    def test_ordering_survives_wire(self):
        a, b = (1.0, 9.0), (2.0, 0.0)
        assert (a < b) == (
            priority_from_wire(priority_to_wire(a))
            < priority_from_wire(priority_to_wire(b))
        )

    @pytest.mark.parametrize("bad", ["high", 3, [1, "x"], [True], None])
    def test_bad_priorities_rejected(self, bad):
        with pytest.raises(ProtocolError, match="bad priority"):
            priority_from_wire(bad)
