"""Live-realm tracing: wire context propagation, reconstructed span
trees, and the client-side metrics bus streamed to the cluster.

The acceptance bounds here are looser than the sim's (wall-clock noise),
but the structural contracts are exact: critical-path segments sum to
the measured latency within 1%, every sampled request's context reaches
the server (``traced_ops``), and a ``--procs 2`` cluster's ``stats`` frame
merges the load generator's client-side snapshots for ``repro watch``.
"""

import asyncio
import math

import pytest

from repro.cli import _combine_client_bus
from repro.loadgen import run_live
from repro.loadgen.transport import LiveTransport
from repro.metrics.bus import render_stats
from repro.scenarios import get_scenario
from repro.serve import LiveServer
from repro.serve.supervisor import ServeSupervisor

TIME_SCALE = 2.0


def steady_config(n_tasks=120, **overrides):
    return get_scenario("steady-state").build_config(
        strategy="unifincr-credits", n_tasks=n_tasks, **overrides
    )


def run_against_server(config):
    async def scenario():
        server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
        await server.start()
        try:
            return await run_live(config, seed=1, endpoints=[(server.host, server.port)])
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestLiveSpanTrees:
    def test_traces_reconstruct_and_sum_within_one_percent(self):
        result = run_against_server(steady_config(trace_sample=1.0))
        assert result.tasks_completed == 120
        assert result.traces
        for trace in result.traces:
            total = sum(v for _, v, _ in trace.critical_path())
            assert math.isclose(total, trace.latency, rel_tol=0.01)
            # The serving realm measured these segments itself; they must
            # be present and non-negative in the reconstruction.
            for span in trace.spans:
                segments = span.segments()
                assert segments["queue_wait"] >= 0.0
                assert segments["service"] >= 0.0

    def test_wire_context_reaches_the_server(self):
        result = run_against_server(steady_config(trace_sample=1.0))
        assert result.extras["trace_sampled"] > 0
        # Every span the client recorded traveled as a traced op frame.
        assert result.extras["live_traced_ops"] == result.extras["trace_spans"]

    def test_sampling_off_sends_no_context(self):
        result = run_against_server(steady_config())
        assert result.traces is None
        assert "live_traced_ops" not in result.extras
        assert not any(k.startswith("trace_") for k in result.extras)


class TestClientBusAdmin:
    def snapshot(self, seq, completed=10):
        return {
            "time": 1.0, "seq": seq, "window": 0.1, "window_count": 4,
            "completed": completed, "latency_p50_ms": 2.0,
            "latency_p99_ms": 9.0, "arrival_rate": 40.0,
            "served_rate": 40.0, "queue_depths": [0.0, 1.0],
        }

    def test_report_then_fetch_roundtrips(self):
        async def scenario():
            server = LiveServer.from_config(
                steady_config(), time_scale=TIME_SCALE, port=0
            )
            await server.start()
            try:
                transport = await LiveTransport.connect(
                    [(server.host, server.port)]
                )
                try:
                    transport.report_bus("loadgen-1", self.snapshot(seq=5))
                    transport.report_bus("loadgen-1", self.snapshot(seq=7))
                    # A stale generation must not clobber the newest.
                    transport.report_bus("loadgen-1", self.snapshot(seq=6))
                    transport.report_bus("loadgen-2", self.snapshot(seq=1))
                    return (await transport.fetch_stats())["client_bus"]
                finally:
                    await transport.close()
            finally:
                await server.stop()

        merged = asyncio.run(scenario())
        assert set(merged) == {"loadgen-1", "loadgen-2"}
        assert merged["loadgen-1"]["seq"] == 7
        assert merged["loadgen-2"]["seq"] == 1

    def test_loadgen_streams_its_bus_to_a_two_process_cluster(self):
        """A --procs N cluster's servers hold the client-side windowed view
        while the load generator is connected, merged across endpoints by
        seq -- and drop it when it leaves."""
        config = steady_config(
            n_tasks=150, remediation="monitor", slo_p99_ms=50.0
        )
        supervisor = ServeSupervisor(
            config, procs=2, time_scale=TIME_SCALE, base_port=0
        )
        endpoints = supervisor.start()

        async def scenario():
            watcher = await LiveTransport.connect(endpoints)
            try:
                run = asyncio.ensure_future(
                    run_live(config, endpoints=endpoints)
                )
                merged = {}
                while not run.done() and not any(
                    snapshot["completed"] for snapshot in merged.values()
                ):
                    await asyncio.sleep(0.01)
                    merged = (await watcher.fetch_stats())["client_bus"]
                result = await run
                afterwards = merged
                for _ in range(200):  # the servers see the close a turn later
                    if not afterwards:
                        break
                    await asyncio.sleep(0.01)
                    afterwards = (await watcher.fetch_stats())["client_bus"]
                return result, merged, afterwards
            finally:
                await watcher.close()

        try:
            result, merged, afterwards = asyncio.run(scenario())
        finally:
            supervisor.stop()
        assert result.tasks_completed == 150
        assert len(merged) == 1  # one loadgen process reported
        (snapshot,) = merged.values()
        assert snapshot["completed"] > 0
        assert snapshot["seq"] >= 1
        combined = _combine_client_bus(merged)
        assert combined["completed"] == snapshot["completed"]
        assert combined["latency_p99_ms"] == snapshot["latency_p99_ms"]
        assert afterwards == {}


class TestServerMetricsPage:
    def test_metrics_page_is_well_formed_and_carries_client_bus(self):
        from tests.metrics.test_bus import validate_exposition

        async def scenario():
            server = LiveServer.from_config(
                steady_config(), time_scale=TIME_SCALE, port=0
            )
            await server.start()
            try:
                transport = await LiveTransport.connect(
                    [(server.host, server.port)]
                )
                try:
                    transport.report_bus("loadgen-9", {
                        "time": 1.0, "seq": 2, "window": 0.1,
                        "window_count": 4, "completed": 33,
                        "latency_p50_ms": 2.0, "latency_p99_ms": 9.5,
                        "arrival_rate": 40.0, "served_rate": 40.0,
                        "queue_depths": [0.0],
                    })
                    return render_stats(await transport.fetch_stats())
                finally:
                    await transport.close()
            finally:
                await server.stop()

        text = asyncio.run(scenario())
        validate_exposition(text)
        assert "repro_serve_traced_ops 0" in text
        assert 'repro_client_latency_p99_ms{reporter="loadgen-9"} 9.5' in text
        assert 'repro_client_completed{reporter="loadgen-9"} 33' in text


class TestCombineClientBus:
    def test_empty_is_none(self):
        assert _combine_client_bus({}) is None

    def test_counts_add_and_percentiles_merge_conservatively(self):
        merged = _combine_client_bus({
            "a": {
                "window_count": 30, "completed": 100, "arrival_rate": 10.0,
                "served_rate": 9.0, "latency_p50_ms": 2.0,
                "latency_p99_ms": 8.0,
            },
            "b": {
                "window_count": 10, "completed": 50, "arrival_rate": 5.0,
                "served_rate": 5.0, "latency_p50_ms": 6.0,
                "latency_p99_ms": 20.0,
            },
        })
        assert merged["reporters"] == ["a", "b"]
        assert merged["window_count"] == 40
        assert merged["completed"] == 150
        assert merged["arrival_rate"] == pytest.approx(15.0)
        assert merged["served_rate"] == pytest.approx(14.0)
        assert merged["latency_p50_ms"] == pytest.approx(3.0)  # weighted
        assert merged["latency_p99_ms"] == pytest.approx(20.0)  # max
