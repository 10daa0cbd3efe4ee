"""The binary data plane's bytes, pinned.

One loopback connection between a real :class:`~repro.loadgen.transport.
LiveTransport` and a real :class:`~repro.serve.LiveServer`, through a
recording TCP relay: hello and hello-ack, a ``stats`` query and its reply,
an untraced and a traced op, then a ``res`` and a ``congestion`` frame.
The SHA-256 of each direction's byte stream is a golden: a refactor of the
codec, the handshake or the send paths must leave both unchanged.

Everything that would make the bytes depend on the wall clock is fixed by
hand -- the workers are paused, so the ops are never served; the ``stats``
reply is a constant snapshot; the ``res`` and the ``congestion`` frame are
sent with fixed values through the server's own send paths.
"""

import asyncio
import hashlib
import types

from repro.loadgen.transport import LiveTransport
from repro.scenarios import get_scenario
from repro.serve import LiveServer
from repro.serve.workers import LiveJob

#: SHA-256 of the client -> server stream, and of the server -> client one.
CLIENT_SHA256 = "154dc8fe275b6b1cfc272f556fb237b73acbb206d560cc3caaabf7786507a43c"
SERVER_SHA256 = "bf38bb5c609e3a08e97f011f7f17e1e795532a63ed6e45a0e82c89b87b0c3fac"

#: The ``stats`` reply, fixed (a live one carries wall-clock readings).
SNAPSHOT = {
    "t": "stats",
    "completed": 3,
    "rejected": 0,
    "connections": 1,
    "frames_received": 2,
    "uptime_model_s": 0.5,
    "workers": [{"worker": 0, "completed": 3}],
    "client_bus": {},
}
TRACE = 0x0123456789ABCDEF


class Relay:
    """A loopback TCP relay that records every byte it forwards."""

    def __init__(self, target):
        self.target = target
        self.up = bytearray()  # client -> server
        self.down = bytearray()  # server -> client

    async def start(self):
        self._server = await asyncio.start_server(self._accept, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def _accept(self, client_reader, client_writer):
        server_reader, server_writer = await asyncio.open_connection(*self.target)
        await asyncio.gather(
            self._pump(client_reader, server_writer, self.up),
            self._pump(server_reader, client_writer, self.down),
        )

    @staticmethod
    async def _pump(reader, writer, record):
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                record += data
                writer.write(data)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


def request(key, size, priority):
    """The fields of a ``RequestMessage`` the transport's op path reads."""
    return types.SimpleNamespace(
        op=types.SimpleNamespace(key=key, value_size=size),
        priority=priority,
        client_id=0,
    )


async def until(condition, what):
    for _ in range(500):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


async def converse():
    config = get_scenario("steady-state").build_config(strategy="c3", n_tasks=10)
    server = LiveServer.from_config(config, time_scale=1.0, seed=7, port=0)
    await server.start()
    relay = Relay((server.host, server.port))
    endpoint = await relay.start()
    results = []
    try:
        for worker in server.workers.values():
            worker.pause()  # ops are queued, never served
        server.snapshot = lambda: dict(SNAPSHOT)
        transport = await LiveTransport.connect(
            [endpoint], on_res=lambda *fields: results.append(fields)
        )
        try:
            assert await transport.fetch_stats() == {**SNAPSHOT, "t": "stats"}
            transport.send("client", ("server", 1), request(42, 1024, (0.5, 1.5, 2.0)))
            transport.trace_sampler = lambda _request: TRACE
            transport.send("client", ("server", 2), request(-7, 64, (3.0,)))
            await until(lambda: server.frames_received == 4, "both ops")
            (connection,) = server.connections
            worker = types.SimpleNamespace(server_id=1, feedback=lambda: (5, 2, 3.25e-4))
            job = LiveJob(0, 42, 1024, (0.5, 1.5, 2.0), connection.respond)
            connection.in_flight += 1
            connection.respond(worker, job, 1.5e-4, 2.5e-4)
            connection.send({"t": "congestion", "server": 2, "ratio": 1.75})
            await until(
                lambda: results and transport.congestion_signals == 1,
                "the res and the congestion frame",
            )
        finally:
            await transport.close()
    finally:
        await relay.stop()
        await server.stop()
    assert results == [(0, 1, 1.5e-4, 2.5e-4, 5, 2, 3.25e-4)]
    return bytes(relay.up), bytes(relay.down)


def test_binary_connection_bytes_are_pinned():
    up, down = asyncio.run(converse())
    assert (hashlib.sha256(up).hexdigest(), hashlib.sha256(down).hexdigest()) == (
        CLIENT_SHA256,
        SERVER_SHA256,
    ), (up, down)
