"""Framing: ``FrameStream`` fill/drain and the ``BatchWriter``.

The property half cuts an arbitrary v1 or v2 frame stream at arbitrary
byte boundaries and checks that the sink sees exactly the calls that
decoding the frames one by one implies -- chunking must be invisible.
The example half pins what the property cannot: a codec switch made by
the sink mid-buffer, absolute error offsets across a compaction, the
three EOF shapes, and the writer's coalescing and close semantics.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.codec import BINARY_CODEC, JSON_CODEC
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    BatchWriter,
    FrameSink,
    FrameStream,
    ProtocolError,
)

rids = st.integers(0, (1 << 32) - 1)
servers = st.integers(0, (1 << 16) - 1)
keys = st.integers(-(1 << 63), (1 << 63) - 1)
sizes = st.integers(0, (1 << 32) - 1)
floats = st.floats(allow_nan=False, width=64)
priorities = st.lists(floats, max_size=6)

ops = st.fixed_dictionaries(
    {"t": st.just("op"), "rid": rids, "server": servers, "key": keys,
     "size": sizes, "prio": priorities}
)  # fmt: skip
traced_ops = st.fixed_dictionaries(
    {"t": st.just("op"), "rid": rids, "server": servers, "key": keys,
     "size": sizes, "prio": priorities, "trace": st.integers(0, (1 << 64) - 1)}
)  # fmt: skip
results = st.fixed_dictionaries(
    {"t": st.just("res"), "rid": rids, "server": servers, "queue_wait": floats,
     "service": floats,
     "fb": st.fixed_dictionaries(
         {"q": st.integers(0, (1 << 32) - 1), "s": st.integers(0, (1 << 16) - 1),
          "ew": floats})}
)  # fmt: skip
congestion = st.fixed_dictionaries(
    {"t": st.just("congestion"), "server": servers, "ratio": floats}
)
control = st.fixed_dictionaries(
    {"t": st.sampled_from(["hello", "admin", "stats", "error"]),
     "note": st.text(max_size=12)}
)  # fmt: skip
frames = st.lists(
    st.one_of(ops, traced_ops, results, congestion, control), max_size=12
)


class Recorder(FrameSink):
    """Records every sink call as a comparable tuple."""

    def __init__(self):
        self.calls = []

    def on_op(self, *fields):
        self.calls.append(("op",) + fields)

    def on_res(self, *fields):
        self.calls.append(("res",) + fields)

    def on_frame(self, frame):
        self.calls.append(("frame", frame))

    def on_bad_frame(self, message):
        self.calls.append(("bad", message))


def implied_call(frame):
    """The sink call one *decoded* frame dict stands for."""
    if frame["t"] == "op":
        return (
            "op", int(frame["rid"]), int(frame["server"]), int(frame["key"]),
            int(frame["size"]), tuple(float(p) for p in frame["prio"]),
            frame.get("trace"),
        )  # fmt: skip
    if frame["t"] == "res":
        fb = frame["fb"]
        return (
            "res", int(frame["rid"]), int(frame["server"]),
            float(frame["queue_wait"]), float(frame["service"]),
            int(fb["q"]), int(fb["s"]), float(fb["ew"]),
        )  # fmt: skip
    return ("frame", frame)


def cut(wire, cuts):
    """``wire`` split at the (deduplicated, in-range) cut points."""
    points = sorted({c % (len(wire) + 1) for c in cuts} | {0, len(wire)})
    return [wire[a:b] for a, b in zip(points, points[1:]) if b > a]


async def drain_chunks(chunks, codec, sink, eof=True):
    """Feed ``chunks`` one socket read at a time through fill/drain."""
    reader = asyncio.StreamReader(limit=1 << 22)
    stream = FrameStream(reader, codec)
    sink.stream = stream
    for chunk in chunks:
        reader.feed_data(chunk)
        # A fed chunk larger than CHUNK takes several reads.
        for _ in range(-(-len(chunk) // FrameStream.CHUNK)):
            assert await stream.fill()
            stream.drain(sink)
    if eof:
        reader.feed_eof()
        assert not await stream.fill()
    return stream


class TestChunkingIsInvisible:
    @settings(max_examples=150, deadline=None)
    @given(
        codec=st.sampled_from([JSON_CODEC, BINARY_CODEC]),
        batch=frames,
        cuts=st.lists(st.integers(min_value=0), max_size=12),
    )
    def test_any_cut_gives_the_calls_decode_implies(self, codec, batch, cuts):
        encoded = [codec.encode(frame) for frame in batch]
        expected = [
            implied_call(codec.decode(wire, 4, len(wire))) for wire in encoded
        ]
        sink = Recorder()
        stream = asyncio.run(
            drain_chunks(cut(b"".join(encoded), cuts), codec, sink)
        )
        assert sink.calls == expected
        assert stream.frames_read == len(batch)

    def test_one_byte_at_a_time(self):
        batch = [
            BINARY_CODEC.encode_op(7, 2, -5, 100, (1.0, 2.0)),
            BINARY_CODEC.encode_op(8, 3, 6, 200, (), 99),
            BINARY_CODEC.encode_res(7, 2, 1e-4, 2e-4, 3, 1, 2e-4),
            BINARY_CODEC.encode({"t": "admin", "cmd": "stats"}),
        ]
        wire = b"".join(batch)
        sink = Recorder()
        asyncio.run(
            drain_chunks([wire[i : i + 1] for i in range(len(wire))], BINARY_CODEC, sink)
        )
        assert sink.calls == [
            ("op", 7, 2, -5, 100, (1.0, 2.0), None),
            ("op", 8, 3, 6, 200, (), 99),
            ("res", 7, 2, 1e-4, 2e-4, 3, 1, 2e-4),
            ("frame", {"t": "admin", "cmd": "stats"}),
        ]


class TestCodecs:
    def test_switch_by_the_sink_applies_to_the_next_frame_of_the_buffer(self):
        """The server's hello handler switches codecs mid-drain: the frame
        right behind the hello, in the same chunk, is already v2."""

        class Switching(Recorder):
            def on_frame(self, frame):
                super().on_frame(frame)
                if frame["t"] == "hello":
                    self.stream.codec = BINARY_CODEC

        wire = (
            JSON_CODEC.encode({"t": "hello", "proto": 1, "max_proto": 2})
            + BINARY_CODEC.encode_op(1, 0, 5, 64, (0.5,))
            + BINARY_CODEC.encode({"t": "admin", "cmd": "stats"})
        )
        sink = Switching()
        asyncio.run(drain_chunks([wire], JSON_CODEC, sink))
        assert [call[0] for call in sink.calls] == ["frame", "op", "frame"]
        assert sink.calls[1] == ("op", 1, 0, 5, 64, (0.5,), None)

    def test_json_fields_are_typed_by_the_codec(self):
        good = {"t": "op", "rid": "7", "server": 1.0, "key": 3, "size": 9, "prio": [1]}
        sink = Recorder()
        first = JSON_CODEC.encode(good)
        wire = (
            first
            + JSON_CODEC.encode({**good, "rid": "seven"})
            + JSON_CODEC.encode({k: v for k, v in good.items() if k != "prio"})
            + JSON_CODEC.encode({"t": "res", "rid": 7, "server": 1})
        )
        asyncio.run(drain_chunks([wire], JSON_CODEC, sink))
        assert sink.calls[0] == ("op", 7, 1, 3, 9, (1.0,), None)
        # Untypable fields reject the frame, by absolute offset, not the stream.
        assert sink.calls[1][0] == "bad"
        assert f"bad op frame at byte {len(first) + 4}" in sink.calls[1][1]
        assert "KeyError('prio')" in sink.calls[2][1]  # never defaulted
        # An old server's res may omit the measurements: they default to 0.
        assert sink.calls[3] == ("res", 7, 1, 0.0, 0.0, 0, 0, 0.0)


class TestErrors:
    def test_offsets_stay_absolute_across_a_compaction(self):
        frames_ = [
            BINARY_CODEC.encode_op(i, 1, i, 10, (float(i),) * (i % 4))
            for i in range(4000)
        ]
        good = b"".join(frames_)
        assert len(good) > FrameStream.CHUNK
        bad = b"\x00\x00\x00\x02\x55\x00"  # unknown tag 0x55
        sink = Recorder()

        async def scenario():
            reader = asyncio.StreamReader(limit=1 << 22)
            stream = FrameStream(reader, BINARY_CODEC)
            reader.feed_data(good + bad)
            with pytest.raises(ProtocolError) as error:
                while await stream.fill():
                    stream.drain(sink)
            return stream, str(error.value)

        stream, message = asyncio.run(scenario())
        assert stream._base > 0  # the buffer really was compacted
        assert len(sink.calls) == 4000  # everything before the damage was served
        assert f"unknown binary frame tag 0x55 at byte {len(good) + 4}" in message

    @pytest.mark.parametrize(
        "tail, expected",
        [
            (b"\x00\x00", "mid-header at byte {at} (2 of 4 bytes)"),
            (b"\x00\x00\x00\x20abc", "mid-frame at byte {at} (7 bytes buffered)"),
        ],
    )
    def test_eof_inside_a_frame_names_where(self, tail, expected):
        good = BINARY_CODEC.encode_res(1, 2, 0.0, 0.0, 0, 0, 0.0) * 3
        sink = Recorder()

        async def scenario():
            reader = asyncio.StreamReader()
            stream = FrameStream(reader, BINARY_CODEC)
            reader.feed_data(good + tail)
            reader.feed_eof()
            assert await stream.fill()
            stream.drain(sink)
            with pytest.raises(ProtocolError) as error:
                await stream.fill()
            return str(error.value)

        message = asyncio.run(scenario())
        assert len(sink.calls) == 3
        assert expected.format(at=len(good)) in message

    def test_clean_eof_between_frames_is_not_an_error(self):
        sink = Recorder()
        stream = asyncio.run(
            drain_chunks([JSON_CODEC.encode({"t": "stats"})], JSON_CODEC, sink)
        )
        assert stream.frames_read == 1

    def test_oversize_length_is_refused_before_buffering_it(self):
        sink = Recorder()
        wire = BINARY_CODEC.encode_res(1, 2, 0.0, 0.0, 0, 0, 0.0) + (
            MAX_FRAME_BYTES + 1
        ).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds the cap"):
            asyncio.run(drain_chunks([wire], BINARY_CODEC, sink, eof=False))
        assert len(sink.calls) == 1

    def test_an_unhandled_kind_is_a_protocol_error(self):
        class Deaf(FrameSink):
            pass

        with pytest.raises(ProtocolError, match="unexpected op frame"):
            asyncio.run(
                drain_chunks(
                    [BINARY_CODEC.encode_op(1, 0, 5, 64, ())], BINARY_CODEC, Deaf()
                )
            )


class FakeWriter:
    """The slice of ``StreamWriter`` a ``BatchWriter`` touches."""

    def __init__(self):
        self.written = []
        self.closed = False

    def write(self, data):
        assert not self.closed
        self.written.append(bytes(data))

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


class TestBatchWriter:
    def test_sends_of_one_loop_turn_are_one_write(self):
        async def scenario():
            writer = FakeWriter()
            out = BatchWriter(writer)
            for i in range(50):
                out.send(bytes([i]) * 3)
            assert writer.written == [] and out.pending == 150
            await asyncio.sleep(0)
            first = list(writer.written)
            out.send(b"xy")
            await asyncio.sleep(0)
            return out, first, writer.written

        out, first, written = asyncio.run(scenario())
        assert first == [b"".join(bytes([i]) * 3 for i in range(50))]
        assert written[1:] == [b"xy"]
        assert (out.frames_sent, out.bytes_sent, out.writes, out.pending) == (
            51, 152, 2, 0,
        )  # fmt: skip

    def test_close_flushes_what_is_queued_and_later_sends_are_dropped(self):
        async def scenario():
            writer = FakeWriter()
            out = BatchWriter(writer)
            out.send(b"abc")
            out.send(b"de")
            await out.close()  # no loop turn in between: close must flush
            out.send(b"late")
            await asyncio.sleep(0)
            return out, writer

        out, writer = asyncio.run(scenario())
        assert writer.written == [b"abcde"] and writer.closed
        assert (out.frames_sent, out.bytes_sent, out.writes) == (2, 5, 1)

    def test_close_without_a_flush_budget_drops_the_queue(self):
        async def scenario():
            writer = FakeWriter()
            writer.transport = type("T", (), {"abort": lambda self: None})()
            out = BatchWriter(writer)
            out.send(b"abc")
            await out.close(flush_timeout=0.0)
            await asyncio.sleep(0)  # the armed flush must not write either
            return out, writer

        out, writer = asyncio.run(scenario())
        assert writer.written == [] and writer.closed
        assert (out.frames_sent, out.bytes_sent, out.writes) == (1, 0, 0)
