"""The live run's wait and close: the transport's one outcome future, the
admin-query timeout, and the firehose on the transport's links.

The peer that *accepts but never answers* is played by a thread over a
plain socket, so the synchronous CLI entry point can be driven against it.
"""

import asyncio
import contextlib
import socket
import struct
import threading

import pytest

from repro.cli import main
from repro.loadgen import LiveTransport, LiveTransportError, run_firehose
from repro.loadgen import transport as transport_module
from repro.scenarios import get_scenario
from repro.serve import LiveServer, ServeSupervisor
from repro.serve.protocol import encode_frame


def steady_config(strategy="c3", n_tasks=10):
    return get_scenario("steady-state").build_config(strategy=strategy, n_tasks=n_tasks)


@contextlib.contextmanager
def silent_peer():
    """A server that completes the handshake (the steady-state cluster
    shape) and then reads whatever it is sent without a word in reply."""
    cluster = steady_config().cluster
    ack = encode_frame(
        {
            "t": "hello-ack",
            "proto": 2,
            "n_servers": cluster.n_servers,
            "cores_per_server": cluster.cores_per_server,
            "per_core_rate": cluster.per_core_rate,
            "time_scale": 1.0,
            "scenario": "steady-state",
            "seed": 1,
            "workers": list(range(cluster.n_servers)),
        }
    )
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()
    accepted = []

    def serve():
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            accepted.append(connection)
            (length,) = struct.unpack(">I", connection.recv(4, socket.MSG_WAITALL))
            connection.recv(length, socket.MSG_WAITALL)  # the hello
            connection.sendall(ack)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        stop.set()
        thread.join(timeout=5)
        for connection in accepted:
            connection.close()
        listener.close()
    assert not thread.is_alive()


class TestSilentPeer:
    """A cluster that accepts but never answers is a ``LiveTransportError``
    -- exit 1 from the CLI -- on every supported interpreter: before 3.11
    ``asyncio.TimeoutError`` is not an ``OSError``, so a bare ``wait_for``
    at the call sites escaped ``repro watch`` / ``loadgen`` as a traceback."""

    @pytest.fixture(autouse=True)
    def short_query_timeout(self, monkeypatch):
        monkeypatch.setattr(transport_module, "QUERY_TIMEOUT_S", 0.3)

    def test_an_unanswered_query_names_the_endpoint_and_drops_its_waiters(self):
        async def scenario(endpoint):
            transport = await LiveTransport.connect([endpoint])
            try:
                with pytest.raises(LiveTransportError) as caught:
                    await transport.fetch_stats()
                return str(caught.value), transport._stats_waiters
            finally:
                await transport.close()

        with silent_peer() as endpoint:
            message, waiters = asyncio.run(scenario(endpoint))
        assert message == (
            f"no reply to 'stats' from {endpoint[0]}:{endpoint[1]} within 0.3 s"
        )
        assert waiters == {endpoint: []}

    @pytest.mark.parametrize(
        "command",
        [
            ["watch", "--count", "1"],
            ["watch", "--count", "1", "--prometheus"],
            ["loadgen", "--strategy", "c3", "--tasks", "10"],
        ],
        ids=["watch", "watch-prometheus", "loadgen"],
    )
    def test_the_cli_exits_1_with_one_line(self, command, capsys):
        with silent_peer() as (host, port):
            code = main(command + ["--host", host, "--port", str(port)])
        assert code == 1
        error = capsys.readouterr().err
        assert f"{command[0]} failed: no reply to " in error
        assert "Traceback" not in error


class TestOutcome:
    """``LiveTransport.outcome``: completion resolves it; whatever fails
    first fails it with the original exception; ``wait`` bounds it."""

    @staticmethod
    async def against_a_server(scenario):
        server = LiveServer.from_config(steady_config(), time_scale=1.0, port=0)
        await server.start()
        try:
            transport = await LiveTransport.connect([(server.host, server.port)])
            try:
                return await scenario(transport)
            finally:
                await transport.close()
        finally:
            await server.stop()

    def test_finish_resolves_it_and_a_later_failure_does_not_matter(self):
        async def scenario(transport):
            transport.clock.call_later(0.0, lambda _arg: transport.finish())
            await transport.wait(5.0, lambda: "unreachable")
            transport.fail(RuntimeError("too late"))
            return transport.outcome.result()

        assert asyncio.run(self.against_a_server(scenario)) is None

    def test_a_clock_callback_exception_fails_it_with_the_original(self):
        boom = KeyError("raised inside a timer")

        def raising(_arg):
            raise boom

        async def scenario(transport):
            transport.clock.call_later(0.0, raising)
            with pytest.raises(KeyError) as caught:
                await transport.wait(5.0, lambda: "unreachable")
            return caught.value

        assert asyncio.run(self.against_a_server(scenario)) is boom

    def test_a_run_that_never_ends_times_out_saying_how_far_it_got(self):
        async def scenario(transport):
            with pytest.raises(LiveTransportError, match="3 of 7 done"):
                await transport.wait(0.05, lambda: "3 of 7 done")

        asyncio.run(self.against_a_server(scenario))

    def test_close_frees_the_transport_with_the_collector_off(self):
        import gc
        import weakref

        async def scenario(transport):
            transport.register("someone", lambda message: None)
            return weakref.ref(transport), weakref.ref(transport.clock)

        gc.collect()
        gc.disable()
        try:
            refs = asyncio.run(self.against_a_server(scenario))
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestFirehoseLedger:
    def test_a_two_process_run_reports_what_it_did_before_the_move(self):
        """The firehose rides ``LiveTransport``'s links and stats query; its
        ledger is what its own link bookkeeping reported for the same
        arguments (recorded at the parent commit with a 50-multiget warm-up,
        moved by the 150 ops of the fixed 100-multiget one; the ``writes``
        counts and the client's byte/receive totals follow the loop's
        timing)."""
        supervisor = ServeSupervisor(
            steady_config("unifincr-credits"), procs=2, time_scale=0.05, base_port=0
        )
        endpoints = supervisor.start()
        try:
            fire = asyncio.run(
                run_firehose(endpoints, multigets=300, fanout=3, window=16)
            )
        finally:
            supervisor.stop()
        assert fire.protocol == 2 and fire.endpoints == 2
        assert fire.congestion_frames == 0
        assert sorted(fire.client_io) == [
            "bytes_sent", "frames_received", "frames_sent", "writes",
        ]  # fmt: skip
        # (300 - 16 + 1) multigets issued in the measured span, x3 ops,
        # plus one stats query per endpoint.
        assert fire.client_io["frames_sent"] == 857
        assert fire.client_io["frames_received"] >= 857
        server_io = dict(fire.server_io)
        assert server_io.pop("writes") > 0
        assert server_io == {
            # (300 + 100 warm-up) multigets x3 ops; every result is 41 bytes,
            # each endpoint's one JSON ack 163.
            "bytes_sent": 49526,
            "completed": 1200,
            "frames_received": 1204,  # 2 hellos, 1200 ops, 2 stats queries
            "frames_sent": 1202,  # 2 acks, 1200 results; the stats replies follow
            "rejected": 0,
            "traced_ops": 0,
        }
