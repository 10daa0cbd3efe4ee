"""Live-realm observability: the one ``stats`` frame and its renderings
(the admin plane, the HTTP exporter), how long a reporter lives in it, and
the in-run SLO remediation loop over the wire protocol."""

import asyncio
import math

import pytest

from repro.loadgen import run_live
from repro.loadgen.transport import LiveTransport
from repro.metrics.bus import render_stats
from repro.scenarios import get_scenario
from repro.serve import LiveServer, workers
from repro.serve.codec import BINARY_CODEC
from repro.serve.protocol import encode_frame
from tests.live.test_workers import until
from tests.live.wire_helpers import handshake, read_frame
from tests.metrics.test_bus import validate_exposition


TIME_SCALE = 2.0


def steady_config(n_tasks=120, **overrides):
    return get_scenario("steady-state").build_config(
        strategy="unifincr-credits", n_tasks=n_tasks, **overrides
    )


async def http_get(host, port, path="/metrics"):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.decode("ascii"), body.decode("utf-8")


def families(text):
    """The metric families a page announces, in page order."""
    return [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")]


class TestOneSnapshot:
    """Every view of a live cluster is a rendering of its ``stats`` frame."""

    def test_a_two_endpoint_cluster_renders_as_one_valid_page(self):
        async def scenario():
            servers = [
                LiveServer.from_config(
                    steady_config(), time_scale=TIME_SCALE, port=0, worker_ids=ids
                )
                for ids in (range(0, 5), range(5, 9))
            ]
            for server in servers:
                await server.start()
            try:
                transport = await LiveTransport.connect(
                    [(server.host, server.port) for server in servers]
                )
                try:
                    transport.report_bus("loadgen-1", {"seq": 1, "completed": 3})
                    return await transport.fetch_stats()
                finally:
                    await transport.close()
            finally:
                for server in servers:
                    await server.stop()

        stats = asyncio.run(scenario())
        assert stats["connections"] == 2  # the scalars add across processes
        assert [w["worker"] for w in stats["workers"]] == list(range(9))
        assert stats["client_bus"] == {"loadgen-1": {"seq": 1, "completed": 3}}
        text = render_stats(stats)
        validate_exposition(text)
        assert len(families(text)) == len(set(families(text)))
        for family in ("queued", "arrival_rate", "lateness_total_s"):
            labels = [
                line.split("}")[0]
                for line in text.splitlines()
                if line.startswith(f"repro_serve_worker_{family}{{")
            ]
            assert labels == [
                f'repro_serve_worker_{family}{{worker="{i}"' for i in range(9)
            ]
        assert text.count("repro_client_completed{") == 1

    def test_http_body_and_admin_frame_list_the_same_families(self):
        async def scenario():
            server = LiveServer.from_config(
                steady_config(), time_scale=TIME_SCALE, port=0, metrics_port=0
            )
            await server.start()
            try:
                transport = await LiveTransport.connect([(server.host, server.port)])
                try:
                    transport.report_bus("loadgen-1", {"seq": 1, "completed": 3})
                    stats = await transport.fetch_stats()
                    _, body = await http_get(server.host, server.metrics_port)
                    return render_stats(stats), body
                finally:
                    await transport.close()
            finally:
                await server.stop()

        rendered, body = asyncio.run(scenario())
        assert families(rendered) == families(body)
        assert "repro_serve_worker_arrival_rate" in families(body)
        assert "repro_client_completed" in families(body)

    @pytest.mark.parametrize("command", ["metrics", "client-bus"])
    def test_unknown_command_is_one_error_frame(self, command):
        """``stats`` is the one query: the commands it replaced are refused
        by name, and the refusal costs the connection nothing."""

        async def scenario():
            server = LiveServer.from_config(
                steady_config(), time_scale=TIME_SCALE, port=0
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:  # no hello: a JSON control-plane connection
                    writer.write(encode_frame({"t": "admin", "cmd": command}))
                    writer.write(encode_frame({"t": "admin", "cmd": "stats"}))
                    await writer.drain()
                    return await read_frame(reader), await read_frame(reader)
                finally:
                    writer.close()
            finally:
                await server.stop()

        error, stats = asyncio.run(scenario())
        assert error["t"] == "error"
        assert f"unknown admin command {command!r}" in error["error"]
        assert stats["t"] == "stats" and len(stats["workers"]) == 9


class TestReporterLifetime:
    """A ``bus-report`` reporter lives as long as its connection."""

    def test_a_finished_run_leaves_no_reporter_behind(self):
        async def scenario():
            # 600 tasks are ≈ 0.06 model seconds of arrivals: three bus
            # intervals, so a report lands mid-run however closely the
            # feeder keeps to its due times.
            config = steady_config(600, remediation="monitor", slo_p99_ms=50.0)
            server = LiveServer.from_config(
                config, time_scale=TIME_SCALE, port=0, metrics_port=0
            )
            await server.start()
            seen = []
            try:
                for _ in range(2):
                    run = asyncio.ensure_future(
                        run_live(
                            config, seed=1, endpoints=[(server.host, server.port)]
                        )
                    )
                    await until(
                        lambda: server.snapshot()["client_bus"] or run.done(), timeout=10.0
                    )
                    mid_run = server.snapshot()["client_bus"]
                    result = await run
                    await until(lambda: not server.connections, timeout=10.0)
                    _, body = await http_get(server.host, server.metrics_port)
                    seen.append((mid_run, server.snapshot()["client_bus"], body))
                    assert result.tasks_completed == 600
            finally:
                await server.stop()
            return seen

        for mid_run, afterwards, body in asyncio.run(scenario()):
            assert len(mid_run) == 1
            assert afterwards == {}
            assert "repro_client_" not in body


class TestRejectedIsADelta:
    def test_an_earlier_reject_does_not_leak_into_a_run(self, monkeypatch):
        monkeypatch.setattr(workers, "DEFAULT_MAX_QUEUE", 1)

        async def scenario():
            config = steady_config()
            server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    await handshake(reader, writer)
                    # Two ops for one worker in one chunk: the second meets
                    # the bound before the pass has admitted the first.
                    writer.write(
                        BINARY_CODEC.encode_op(1, 0, 7, 100, (0.0,))
                        + BINARY_CODEC.encode_op(2, 0, 8, 100, (0.0,))
                    )
                    await writer.drain()
                    replies = [
                        await read_frame(reader, BINARY_CODEC) for _ in range(2)
                    ]
                finally:
                    writer.close()
                # The clean run needs room.
                monkeypatch.setattr(workers, "DEFAULT_MAX_QUEUE", 1024)
                result = await run_live(
                    config, seed=1, endpoints=[(server.host, server.port)]
                )
                return replies, server.snapshot()["rejected"], result
            finally:
                await server.stop()

        replies, rejected_ever, result = asyncio.run(scenario())
        assert sorted(reply["t"] for reply in replies) == ["error", "res"]
        assert rejected_ever == 1
        assert result.tasks_completed == 120
        assert result.extras["live_requests_rejected"] == 0.0


class TestHttpExporter:
    def test_scrape_mid_run(self):
        async def scenario():
            config = steady_config()
            server = LiveServer.from_config(
                config, time_scale=TIME_SCALE, port=0, metrics_port=0
            )
            await server.start()
            assert server.metrics_port not in (None, 0)
            try:
                run = asyncio.ensure_future(
                    run_live(
                        config, seed=1, endpoints=[(server.host, server.port)]
                    )
                )
                await asyncio.sleep(0.1)  # let the run get going
                head, body = await http_get(server.host, server.metrics_port)
                result = await run
            finally:
                await server.stop()
            return head, body, result

        head, body, result = asyncio.run(scenario())
        assert head.startswith("HTTP/1.1 200 OK")
        assert "text/plain" in head
        # The exposition grammar CI's schema step used to re-implement.
        validate_exposition(body)
        samples = [line for line in body.splitlines() if not line.startswith("#")]
        assert all(math.isfinite(float(line.rsplit(" ", 1)[1])) for line in samples)
        assert "repro_serve_uptime_model_s" in body
        assert "repro_serve_worker_busy_time_s" in body
        assert result.tasks_completed == 120

    def test_no_metrics_port_means_no_exporter(self):
        async def scenario():
            server = LiveServer.from_config(
                steady_config(), time_scale=TIME_SCALE, port=0
            )
            await server.start()
            try:
                return server.metrics_port
            finally:
                await server.stop()

        assert asyncio.run(scenario()) is None


class TestLiveRemediation:
    def run_mode(self, mode, n_tasks=300):
        async def scenario():
            config = get_scenario("steady-state").build_config(
                strategy="c3",
                n_tasks=n_tasks,
                remediation=mode,
                slo_p99_ms=10.0,
            )
            server = LiveServer.from_config(
                config, time_scale=TIME_SCALE, port=0
            )
            await server.start()
            try:
                return await run_live(
                    config, seed=1, endpoints=[(server.host, server.port)]
                )
            finally:
                await server.stop()

        return asyncio.run(scenario())

    def test_monitor_mode_streams_without_acting(self):
        result = self.run_mode("monitor")
        assert result.tasks_completed == 300
        assert result.extras["bus_snapshots"] > 0
        assert result.extras["remediation_actions"] == 0.0
        assert "slo_breach_windows" in result.extras
        assert "slo_windows_evaluated" in result.extras

    def test_slo_mode_runs_the_full_loop(self):
        # At this scale wall-clock noise decides whether the detector
        # fires, so assert the mechanism (driver ran, counters present,
        # run unharmed), not a breach-count inequality -- the sim realm
        # and the CI smoke own the deterministic comparison.
        result = self.run_mode("slo")
        assert result.tasks_completed == 300
        assert result.extras["bus_snapshots"] > 0
        assert result.extras["remediation_actions"] >= 0.0
        assert result.extras["live_requests_rejected"] == 0.0

    def test_off_mode_adds_no_metrics_extras(self):
        result = self.run_mode("off", n_tasks=120)
        assert result.tasks_completed == 120
        assert "bus_snapshots" not in result.extras
