"""Framing: ``FrameStream`` ``data_received``/``eof_received`` and the ``BatchWriter``.

The property half cuts an arbitrary JSON or binary frame stream at arbitrary
byte boundaries and checks that the sink sees exactly the calls that
decoding the frames one by one implies -- chunking must be invisible.
The example half pins what the property cannot: a codec switch made by
the sink mid-buffer, absolute error offsets across a compaction, the
three EOF shapes, and the writer's coalescing and close semantics (a state
machine holds its invariant: buffered bytes always have a flush armed, and
leave exactly once).
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

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


class Recorder(FrameStream):
    """A protocol object that records every sink call as a comparable tuple."""

    def __init__(self, codec=BINARY_CODEC):
        super().__init__(codec)
        self.calls = []

    def on_op(self, *fields):
        self.calls.append(("op",) + fields)

    def on_res(self, *fields):
        self.calls.append(("res",) + fields)

    def on_frame(self, frame):
        self.calls.append(("frame", frame))


def implied_call(codec, frame):
    """The sink call one frame dict *decoded* by ``codec`` stands for (the
    JSON codec delivers every frame as a dict)."""
    if codec is JSON_CODEC:
        return ("frame", frame)
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


def drain_chunks(chunks, stream, eof=True):
    """Hand ``chunks`` to the protocol object one socket read at a time, the
    way the transport does: no loop, no ``await`` -- a chunk is parsed and
    delivered by the time ``data_received`` returns."""
    for chunk in chunks:
        stream.data_received(chunk)
    if eof:
        assert stream.eof_received() is None  # clean: between two frames
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
            implied_call(codec, codec.decode(wire, 4, len(wire))) for wire in encoded
        ]
        sink = drain_chunks(cut(b"".join(encoded), cuts), Recorder(codec))
        assert sink.calls == expected
        assert sink.frames_read == len(batch)

    def test_one_byte_at_a_time(self):
        batch = [
            BINARY_CODEC.encode_op(7, 2, -5, 100, (1.0, 2.0)),
            BINARY_CODEC.encode_op(8, 3, 6, 200, (), 99),
            BINARY_CODEC.encode_res(7, 2, 1e-4, 2e-4, 3, 1, 2e-4),
            BINARY_CODEC.encode({"t": "admin", "cmd": "stats"}),
        ]
        wire = b"".join(batch)
        sink = drain_chunks([wire[i : i + 1] for i in range(len(wire))], Recorder())
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
                    self.codec = BINARY_CODEC

        wire = (
            JSON_CODEC.encode({"t": "hello", "proto": 1, "max_proto": 2})
            + BINARY_CODEC.encode_op(1, 0, 5, 64, (0.5,))
            + BINARY_CODEC.encode({"t": "admin", "cmd": "stats"})
        )
        sink = drain_chunks([wire], Switching(JSON_CODEC))
        assert [call[0] for call in sink.calls] == ["frame", "op", "frame"]
        assert sink.calls[1] == ("op", 1, 0, 5, 64, (0.5,), None)


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
        with pytest.raises(ProtocolError) as error:
            # The transport reads at most 256 KiB at a time.
            drain_chunks(cut(good + bad, range(0, len(good), 1 << 18)), sink)
        message = str(error.value)
        assert sink._base > 0  # the buffer really was compacted
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
        sink = drain_chunks([good + tail], Recorder(), eof=False)
        with pytest.raises(ProtocolError) as error:
            sink.eof_received()
        message = str(error.value)
        assert len(sink.calls) == 3
        assert expected.format(at=len(good)) in message

    def test_clean_eof_between_frames_is_not_an_error(self):
        sink = drain_chunks([JSON_CODEC.encode({"t": "stats"})], Recorder(JSON_CODEC))
        assert sink.frames_read == 1

    def test_oversize_length_is_refused_before_buffering_it(self):
        sink = Recorder()
        wire = BINARY_CODEC.encode_res(1, 2, 0.0, 0.0, 0, 0, 0.0) + (
            MAX_FRAME_BYTES + 1
        ).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds the cap"):
            drain_chunks([wire], sink, eof=False)
        assert len(sink.calls) == 1

    def test_an_unhandled_kind_is_a_protocol_error(self):
        class Deaf(FrameStream):
            pass

        assert isinstance(Deaf(BINARY_CODEC), FrameSink)  # the defaults refuse
        with pytest.raises(ProtocolError, match="unexpected op frame"):
            drain_chunks([BINARY_CODEC.encode_op(1, 0, 5, 64, ())], Deaf(BINARY_CODEC))


class FakeTransport:
    """The slice of a socket transport a ``FrameStream`` and its
    ``BatchWriter`` touch; ``connection_lost`` follows ``close`` on the next
    loop turn (``abort`` likewise), unless the test plays a stuck peer."""

    def __init__(self, protocol=None, stuck=False):
        self.written = []
        self.closed = self.aborted = self.paused = False
        self.protocol, self.stuck = protocol, stuck

    def write(self, data):
        assert not self.closed
        self.written.append(bytes(data))

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False

    def close(self):
        if not self.closed and self.protocol is not None and not self.stuck:
            asyncio.get_running_loop().call_soon(self.protocol.connection_lost, None)
        self.closed = True

    def abort(self):
        self.stuck = False
        self.close()
        self.aborted = True


def connected(stream, **kwargs):
    """``stream`` after ``connection_made`` on a fake transport (needs a
    running loop); returns the transport."""
    transport = FakeTransport(stream, **kwargs)
    stream.connection_made(transport)
    return transport


class TestBatchWriter:
    def test_sends_of_one_loop_turn_are_one_write(self):
        async def scenario():
            writer = FakeTransport()
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
            stream = FrameStream(BINARY_CODEC)
            writer = connected(stream)
            out = stream.out
            out.send(b"abc")
            out.send(b"de")
            await stream.close()  # no loop turn in between: close must flush
            out.send(b"late")
            await asyncio.sleep(0)
            return out, writer

        out, writer = asyncio.run(scenario())
        assert writer.written == [b"abcde"] and writer.closed and not writer.aborted
        assert (out.frames_sent, out.bytes_sent, out.writes) == (2, 5, 1)

    def test_close_without_a_flush_budget_drops_the_queue(self):
        async def scenario():
            stream = FrameStream(BINARY_CODEC)
            writer = connected(stream)
            out = stream.out
            out.send(b"abc")
            await stream.close(flush_timeout=0.0)
            await asyncio.sleep(0)  # the armed flush must not write either
            return out, writer

        out, writer = asyncio.run(scenario())
        assert writer.written == [] and writer.closed and writer.aborted
        assert (out.frames_sent, out.bytes_sent, out.writes) == (1, 0, 0)

    def test_close_aborts_a_peer_that_does_not_drain_in_time(self):
        async def scenario():
            stream = FrameStream(BINARY_CODEC)
            writer = connected(stream, stuck=True)
            stream.out.send(b"abc")
            await stream.close(flush_timeout=0.01)
            return writer

        writer = asyncio.run(scenario())
        assert writer.written == [b"abc"] and writer.aborted


def hello_ack(proto):
    return JSON_CODEC.encode({"t": "hello-ack", "proto": proto, "n_servers": 1})


class TestLinkHandshake:
    """The client's handshake runs through the link's own sink."""

    @staticmethod
    async def handshaken(wire):
        from repro.loadgen.transport import Link

        link = Link(("h", 1), True)
        transport = connected(link)
        link.data_received(wire)
        return link, transport

    def test_the_ack_switches_the_codec_mid_drain_and_pauses_until_start(self):
        async def scenario():
            # The ack (always JSON) and a binary congestion frame in one chunk.
            congestion = {"t": "congestion", "server": 3, "ratio": 1.5}
            link, transport = await self.handshaken(
                hello_ack(2) + BINARY_CODEC.encode(congestion)
            )
            await link.handshaken
            hello = transport.written[0]
            paused = transport.paused
            seen = []
            link.start(None, lambda endpoint, frame: seen.append((endpoint, frame)), None)
            return link, hello, paused, transport.paused, seen, congestion

        link, hello, paused, resumed, seen, congestion = asyncio.run(scenario())
        assert JSON_CODEC.decode(hello, 4, len(hello)) == {
            "t": "hello", "proto": 1, "max_proto": 2,
        }  # fmt: skip
        assert link.codec is BINARY_CODEC and link.ack["proto"] == 2
        assert paused and not resumed
        assert seen == [(("h", 1), congestion)]  # replayed to the consumer, not lost

    @pytest.mark.parametrize(
        "wire, message",
        [
            (JSON_CODEC.encode({"t": "error", "error": "go away"}), "rejected: go away"),
            (JSON_CODEC.encode({"t": "stats"}), "handshake rejected: got"),
            (hello_ack(1), "unusable proto 1"),
            (hello_ack(3), "unusable proto 3"),
            (hello_ack(True), "unusable proto True"),
            (b"\x00\x00\x00\x02{]", "live connection failed: bad frame payload"),
        ],
    )
    def test_a_refused_handshake_fails_the_open_not_the_run(self, wire, message):
        from repro.loadgen import LiveTransportError

        async def scenario():
            link, _ = await self.handshaken(wire)
            with pytest.raises(LiveTransportError) as error:
                await link.handshaken
            return str(error.value)

        assert message in asyncio.run(scenario())

    def test_a_failure_between_the_ack_and_start_is_replayed_not_dropped(self):
        async def scenario():
            # A res nobody asked for rides the ack's chunk: no consumer yet.
            stray = BINARY_CODEC.encode_res(7, 0, 0.0, 0.0, 0, 0, 0.0)
            link, transport = await self.handshaken(hello_ack(2) + stray)
            await link.handshaken
            seen = []
            link.start(None, lambda endpoint, frame: seen.append(frame), None)
            return seen

        (frame,) = asyncio.run(scenario())
        assert frame["t"] == "error" and "unexpected res frame" in frame["error"]

    def test_a_damaged_frame_after_start_fails_the_link_and_reads_no_more(self):
        async def scenario():
            link, transport = await self.handshaken(hello_ack(2))
            await link.handshaken
            results, failures = [], []
            link.start(lambda *fields: results.append(fields[0]), None, failures.append)
            good = BINARY_CODEC.encode_res(1, 0, 0.0, 0.0, 0, 0, 0.0)
            link.data_received(good + b"\x00\x00\x00\x02{]" + good)
            return results, failures, transport.paused

        results, failures, paused = asyncio.run(scenario())
        assert results == [1]  # what preceded the damage was delivered
        (failure,) = failures
        assert "unknown binary frame tag 0x7b at byte" in str(failure)
        assert paused  # framing is lost: nothing after it is decoded

    def test_eof_before_the_ack_fails_the_handshake(self):
        from repro.loadgen import LiveTransportError

        async def scenario():
            link, _ = await self.handshaken(hello_ack(2)[:9])
            link.eof_received()
            with pytest.raises(LiveTransportError, match="mid-frame at byte 0"):
                await link.handshaken

        asyncio.run(scenario())


class BatchMachine(RuleBasedStateMachine):
    """Sends and loop turns in any order: a writer with buffered bytes always
    has exactly one flush armed, and every byte is written exactly once, in
    order, one write per writer per turn."""

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.armed = []  # writers with a call_soon flush pending
        call_soon = self.loop.call_soon

        def counting_call_soon(callback, *args, **kwargs):
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, BatchWriter):
                self.armed.append(owner)
            return call_soon(callback, *args, **kwargs)

        self.loop.call_soon = counting_call_soon

        async def build():
            return [BatchWriter(FakeTransport()) for _ in range(3)]

        self.writers = self.loop.run_until_complete(build())
        self.sent = [b"" for _ in self.writers]
        self.next_byte = 0

    @rule(which=st.integers(0, 2), size=st.integers(1, 4))
    def send(self, which, size):
        data = bytes((self.next_byte + i) % 251 for i in range(size))
        self.next_byte += size
        self.writers[which].send(data)
        self.sent[which] += data

    @rule()
    def next_turn(self):
        pending = [writer for writer in self.writers if writer.pending]
        writes = [writer.writes for writer in pending]
        self.armed.clear()  # every armed flush runs on this turn
        self.loop.run_until_complete(asyncio.sleep(0))
        assert [writer.writes for writer in pending] == [n + 1 for n in writes]

    @invariant()
    def buffered_bytes_have_one_flush_armed_and_nothing_is_written_twice(self):
        for writer, sent in zip(self.writers, self.sent):
            written = b"".join(writer.transport.written)
            assert sent.startswith(written)
            assert len(written) + writer.pending == len(sent)
            assert self.armed.count(writer) == bool(writer.pending)

    def teardown(self):
        self.loop.run_until_complete(asyncio.sleep(0))
        for writer, sent in zip(self.writers, self.sent):
            assert b"".join(writer.transport.written) == sent  # all of it left
        del self.loop.call_soon
        self.loop.close()


TestBatchMachine = BatchMachine.TestCase
TestBatchMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
