"""Failure injection on the real wire path (a loopback TCP connection).

What a server owes a peer whose bytes go wrong mid-chunk, and what the
load generators owe their caller when the server goes away: every frame
before the damage is served and answered, a bad *field* costs one frame
and a bad *framing* the connection, and a dead server fails the run at
once instead of idling into the wall timeout.  A connection that never
said ``hello`` is a JSON control-plane connection: it is answered, never
served.
"""

import asyncio
import struct
import time

import pytest
from wire_helpers import handshake, read_frame

from repro.loadgen import LiveTransportError, run_firehose, run_live
from repro.scenarios import get_scenario
from repro.serve import LiveServer
from repro.serve.codec import BINARY_CODEC
from repro.serve.protocol import encode_frame, hello_frame

_LENGTH = struct.Struct(">I")


def small_config(n_tasks=10):
    return get_scenario("steady-state").build_config(strategy="c3", n_tasks=n_tasks)


async def read_replies(reader, codec):
    """Every frame the server sends until it closes the connection."""
    data = await asyncio.wait_for(reader.read(-1), timeout=5)
    frames, pos = [], 0
    while pos < len(data):
        (length,) = _LENGTH.unpack_from(data, pos)
        frames.append(codec.decode(data, pos + 4, pos + 4 + length))
        pos += 4 + length
    return frames


async def with_server(scenario, time_scale=1.0):
    server = LiveServer.from_config(small_config(), time_scale=time_scale, port=0)
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.stop()


class TestDamagedChunks:
    def test_truncated_fourth_op_then_eof(self):
        """Three good ops and half a fourth in one chunk, then EOF: three
        results, one error naming the absolute byte, a closed connection."""

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            ack = await handshake(reader, writer)
            assert ack["proto"] == 2
            ops = [BINARY_CODEC.encode_op(rid, 0, rid, 64, (0.0,)) for rid in range(4)]
            chunk = b"".join(ops[:3]) + ops[3][:-5]
            writer.write(chunk)
            writer.write_eof()
            replies = await read_replies(reader, BINARY_CODEC)
            writer.close()
            # The server's offsets count from the connection's first byte,
            # so the hello is in front of the ops.
            hello = len(encode_frame(hello_frame()))
            return replies, hello + len(b"".join(ops[:3])), server.workers[0].completed

        replies, damaged_at, completed = asyncio.run(with_server(scenario))
        kinds = sorted(frame["t"] for frame in replies)
        assert kinds == ["error", "res", "res", "res"]
        assert sorted(f["rid"] for f in replies if f["t"] == "res") == [0, 1, 2]
        (error,) = [f for f in replies if f["t"] == "error"]
        assert f"mid-frame at byte {damaged_at}" in error["error"]
        assert completed == 3

    def test_one_bad_field_costs_one_frame_not_the_connection(self):
        def op(rid, server=0, size=64):
            return BINARY_CODEC.encode_op(rid, server, rid, size, (0.0,))

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            await handshake(reader, writer)
            # Unknown worker, non-positive size: each between two good ops.
            writer.write(op(1) + op(2, server=99) + op(3) + op(4, size=0) + op(5))
            await writer.drain()
            await asyncio.sleep(0.1)
            # The connection is still in sync and still served.
            writer.write(BINARY_CODEC.encode({"t": "admin", "cmd": "stats"}))
            writer.write_eof()
            replies = await read_replies(reader, BINARY_CODEC)
            writer.close()
            return replies

        replies = asyncio.run(with_server(scenario))
        assert sorted(f["rid"] for f in replies if f["t"] == "res") == [1, 3, 5]
        errors = [f["error"] for f in replies if f["t"] == "error"]
        assert len(errors) == 2
        assert any("unknown worker 99" in e for e in errors)
        assert any("non-positive value size" in e for e in errors)
        (stats,) = [f for f in replies if f["t"] == "stats"]
        assert stats["completed"] == 3
        assert stats["frames_received"] == 7  # hello + 5 ops + this stats query


class TestJsonControlPlane:
    """A connection that never says ``hello`` speaks JSON control frames."""

    @staticmethod
    async def replies(server, *frames, count):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(b"".join(encode_frame(frame) for frame in frames))
            await writer.drain()
            return [
                await asyncio.wait_for(read_frame(reader), timeout=5)
                for _ in range(count)
            ]
        finally:
            writer.close()

    def test_admin_and_stats_work_without_a_hello(self):
        async def scenario(server):
            slowdown = {"t": "admin", "cmd": "slowdown", "servers": [0], "factor": 2.0}
            stats = {"t": "admin", "cmd": "stats"}
            return await self.replies(server, slowdown, stats, count=2)

        ack, stats = asyncio.run(with_server(scenario))
        assert ack == {"t": "admin-ack", "cmd": "slowdown"}
        assert stats["t"] == "stats" and stats["workers"][0]["speed_factor"] == 2.0

    def test_an_op_without_a_hello_costs_one_error_frame(self):
        async def scenario(server):
            op = {"t": "op", "rid": 1, "server": 0, "key": 1, "size": 64, "prio": [0.0]}
            stats = {"t": "admin", "cmd": "stats"}
            return await self.replies(server, op, stats, count=2)

        error, stats = asyncio.run(with_server(scenario))
        assert error["t"] == "error"
        assert "op frames need the binary protocol" in error["error"]
        assert stats["t"] == "stats" and stats["completed"] == 0


class TestServerGoesAway:
    """Nothing covered "the server closed the connection" before: both
    generators must fail promptly, not idle to their wall timeout."""

    @staticmethod
    async def killed_mid_run(drive, time_scale):
        server = LiveServer.from_config(
            small_config(), time_scale=time_scale, port=0
        )
        await server.start()
        run = asyncio.get_running_loop().create_task(
            drive((server.host, server.port))
        )
        await asyncio.sleep(0.3)
        assert not run.done(), "the run finished before the server was killed"
        killed_at = time.monotonic()
        await server.stop()
        with pytest.raises(LiveTransportError):
            await asyncio.wait_for(run, timeout=10)
        return time.monotonic() - killed_at

    def test_firehose_fails_promptly(self):
        def drive(endpoint):
            # 400k ops against ~5k ops/s of stretched capacity: over a minute.
            return run_firehose(
                [endpoint], multigets=100_000, fanout=4, window=16, wall_timeout=60
            )

        assert asyncio.run(self.killed_mid_run(drive, time_scale=25.0)) < 5.0

    def test_loadgen_fails_promptly(self):
        def drive(endpoint):
            # 20k tasks at ~400/s of model time, stretched 25x: minutes.
            return run_live(
                small_config(n_tasks=20_000),
                endpoints=[endpoint],
                wall_timeout=60,
            )

        assert asyncio.run(self.killed_mid_run(drive, time_scale=25.0)) < 5.0


class TestBackpressure:
    def test_a_peer_that_pipelines_2000_ops_before_reading_gets_each_result_once(self):
        """The server finishes every chunk in the callback that received it
        and nothing reads its answers meanwhile: they wait in the transport's
        buffer, and all 2,000 arrive, each rid exactly once."""

        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            # 2,000 ops in a burst is an overload by design: without the
            # opt-out a congestion broadcast may land between the answers.
            await handshake(reader, writer, congestion=False)
            n_workers = len(server.workers)
            for rid in range(2000):
                writer.write(BINARY_CODEC.encode_op(rid, rid % n_workers, rid, 64, (0.0,)))
            await writer.drain()  # everything written; nothing read yet
            await asyncio.sleep(0.2)
            writer.write_eof()
            replies = await read_replies(reader, BINARY_CODEC)
            writer.close()
            return replies, sum(w.completed for w in server.workers.values())

        replies, completed = asyncio.run(with_server(scenario, time_scale=0.02))
        assert [f["t"] for f in replies] == ["res"] * 2000
        assert sorted(f["rid"] for f in replies) == list(range(2000))
        assert completed == 2000
