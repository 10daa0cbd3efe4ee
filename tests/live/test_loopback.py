"""End-to-end loopback tests: live server + loadgen in one event loop.

Scaled far below the benchmark sizes (hundreds of tasks, small time
stretch) so the suite stays fast; the CI smoke job and the loopback
benchmark run the acceptance-scale version.
"""

import asyncio

import pytest

from repro.harness import run_experiment, validate_summary_dict
from repro.loadgen import LiveTransportError, live_summary, run_live, run_live_seeds
from repro.loadgen.compare import run_compare
from repro.scenarios import get_scenario
from repro.serve import LiveServer
from repro.serve.workers import LiveWorker


TIME_SCALE = 2.0


async def loopback_run(scenario, strategy, n_tasks=200, seed=1, config=None):
    spec = get_scenario(scenario)
    if config is None:
        config = spec.build_config(strategy=strategy, n_tasks=n_tasks)
    server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
    await server.start()
    try:
        return await run_live(
            config, seed=seed, endpoints=[(server.host, server.port)]
        )
    finally:
        await server.stop()


class TestLoopbackRuns:
    def test_credits_strategy_completes_all_tasks(self):
        result = asyncio.run(loopback_run("steady-state", "unifincr-credits"))
        assert result.tasks_completed == 200
        assert result.tasks_measured == 190  # 5% warmup excluded
        assert result.requests_served >= 200  # >= one request per task
        assert result.sim_duration > 0
        p99 = result.summary((99.0,)).p99
        assert 0 < p99 < float("inf")
        assert result.extras["live_time_scale"] == TIME_SCALE
        assert "congestion_signals" in result.extras  # credits audit trail

    def test_c3_strategy_completes_all_tasks(self):
        result = asyncio.run(loopback_run("steady-state", "c3", n_tasks=150))
        assert result.tasks_completed == 150
        assert result.extras["live_requests_rejected"] == 0.0

    def test_hedged_strategy_may_duplicate(self):
        result = asyncio.run(loopback_run("steady-state", "hedged", n_tasks=150))
        assert result.tasks_completed == 150
        # Duplicates (if any) surface in both the audit extras and the
        # served-vs-needed request accounting.
        assert result.extras["hedges_sent"] >= 0.0

    @pytest.mark.parametrize(
        "scenario, n_tasks, windows, verb",
        [
            # ≈ 0.068 model seconds of arrivals at ≈ 10.3k tasks/s: the
            # trace itself reaches the first window's onset (0.05 s),
            # however well the feeder keeps up with its due times.
            ("straggler", 700, "slowdown_windows", "slowdown"),
            # ≈ 0.117 model seconds: past both first onsets (0.1 s).
            ("crash-restart", 1200, "crash_windows", "pause"),
            ("network-jitter", 1200, "network_jitter_windows", "_respond_jittered"),
        ],
    )
    def test_fault_schedule_replays_live(
        self, monkeypatch, scenario, n_tasks, windows, verb
    ):
        """Every fault verb crosses the wire as an admin frame and takes
        effect on a worker (``verb`` runs there), opens as many windows as
        the simulation does at the same seed, and leaves no worker slowed,
        paused or jittered after teardown."""
        config = get_scenario(scenario).build_config(
            strategy="unifincr-credits", n_tasks=n_tasks
        )
        applied = []
        original = getattr(LiveWorker, verb)

        def spy(worker, *args):
            applied.append(worker.server_id)
            return original(worker, *args)

        monkeypatch.setattr(LiveWorker, verb, spy)

        def degraded(workers):
            return [
                w.server_id
                for w in workers
                if w.speed_factor != 1.0 or w.paused or w.jitter_mean != 0.0
            ]

        async def live():
            server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
            await server.start()
            try:
                result = await run_live(
                    config, seed=1, endpoints=[(server.host, server.port)]
                )
                # The revert admin frames flush during transport close;
                # give the server loop a moment to apply them.
                for _ in range(100):
                    if not degraded(server.workers.values()):
                        break
                    await asyncio.sleep(0.01)
                return result, degraded(server.workers.values())
            finally:
                await server.stop()

        result, left_degraded = asyncio.run(live())
        assert result.tasks_completed == n_tasks
        assert result.extras[windows] >= 1.0
        assert result.extras[windows] == run_experiment(config, seed=1).extras[windows]
        assert applied
        assert left_degraded == []

    def test_multi_seed_runs_return_seed_order(self):
        async def scenario():
            config = get_scenario("steady-state").build_config(
                strategy="oblivious-lor", n_tasks=80
            )
            server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
            await server.start()
            try:
                return await run_live_seeds(
                    config, (3, 4), endpoints=[(server.host, server.port)]
                )
            finally:
                await server.stop()

        results = asyncio.run(scenario())
        assert [r.seed for r in results] == [3, 4]
        assert all(r.tasks_completed == 80 for r in results)


class TestGuards:
    def test_model_strategies_have_no_live_realization(self):
        with pytest.raises(ValueError, match="unrealizable"):
            asyncio.run(loopback_run("steady-state", "unifincr-model"))

    def test_open_fault_windows_are_reverted_on_teardown(self):
        """A run ending mid-window must not leave the server degraded
        (heterogeneous-cluster applies a permanent slowdown at t=0)."""

        async def scenario():
            config = get_scenario("heterogeneous-cluster").build_config(
                strategy="oblivious-lor", n_tasks=120
            )
            server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
            await server.start()
            try:
                await run_live(config, endpoints=[(server.host, server.port)])
                # The revert admin frames flush during transport close;
                # give the server loop a moment to apply them.
                for _ in range(100):
                    if all(
                        w.speed_factor == 1.0 for w in server.workers.values()
                    ):
                        break
                    await asyncio.sleep(0.01)
                return [w.speed_factor for w in server.workers.values()]
            finally:
                await server.stop()

        assert asyncio.run(scenario()) == [1.0] * 9

    def test_a_finished_live_run_is_freed_with_the_collector_off(self, monkeypatch):
        """``run_live`` closes its run and its transport: neither, nor the
        wall clock, a client or its strategy, waits for the cycle collector
        (the in-process *server* is not the run's to free)."""
        import gc
        import weakref

        from repro.harness import RunAssembly

        watched = []
        close = RunAssembly.close

        def watching_close(run):
            watched.extend(
                weakref.ref(part)
                for part in (
                    run, run.clock, run.ctx.network, run.clients[0],
                    run.strategies[0], run.tracker,
                )
            )  # fmt: skip
            close(run)

        monkeypatch.setattr(RunAssembly, "close", watching_close)
        gc.collect()
        gc.disable()
        try:
            result = asyncio.run(loopback_run("straggler", "unifincr-credits"))
            assert result.tasks_completed == 200
            assert len(watched) == 6
            assert [ref() for ref in watched] == [None] * 6
        finally:
            gc.enable()

    def test_cluster_shape_mismatch_is_fatal(self):
        async def scenario():
            serve_config = get_scenario("steady-state").build_config(
                strategy="c3", n_tasks=50
            )
            server = LiveServer.from_config(
                serve_config, time_scale=TIME_SCALE, port=0
            )
            await server.start()
            try:
                # A drive config with a different backend tier: refused.
                drive_config = get_scenario("steady-state").build_config(
                    strategy="c3",
                    n_tasks=50,
                    cluster=serve_config.cluster.__class__(n_servers=5),
                )
                await run_live(
                    drive_config, endpoints=[(server.host, server.port)]
                )
            finally:
                await server.stop()

        with pytest.raises(LiveTransportError, match="n_servers"):
            asyncio.run(scenario())


class TestProtocolViolations:
    def test_malformed_frame_is_answered_with_an_error_frame(self):
        """The reply explaining the close must reach the peer (the outbox
        is flushed before the connection is torn down)."""
        from wire_helpers import read_frame

        async def scenario():
            config = get_scenario("steady-state").build_config(
                strategy="c3", n_tasks=10
            )
            server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write((1 << 24).to_bytes(4, "big"))  # absurd length
                await writer.drain()
                frame = await asyncio.wait_for(read_frame(reader), timeout=5)
                writer.close()
                return frame
            finally:
                await server.stop()

        frame = asyncio.run(scenario())
        assert frame["t"] == "error"
        assert "exceeds the cap" in frame["error"]


class TestSummarySchema:
    def test_live_summary_matches_sim_schema(self):
        result = asyncio.run(
            loopback_run("steady-state", "unifincr-credits", n_tasks=150)
        )
        summary = live_summary(
            {"unifincr-credits": [result]},
            meta={"realm": "live", "scenario": "steady-state"},
        )
        validate_summary_dict(summary)
        entry = summary["strategies"]["unifincr-credits"]
        assert entry["count"] == result.tasks_measured
        assert set(entry["percentiles_ms"]) == {"p50", "p95", "p99"}


class TestCompare:
    def test_compare_runs_both_realms(self):
        report = run_compare(
            "steady-state",
            ("oblivious-lor", "unifincr-credits"),
            n_tasks=150,
            seeds=(1,),
            time_scale=TIME_SCALE,
        )
        assert report.strategies == ("oblivious-lor", "unifincr-credits")
        for realm in ("sim", "live"):
            for name in report.strategies:
                assert report.p99_ms(realm, name) > 0
        data = report.to_dict()
        validate_summary_dict(data["sim"])
        validate_summary_dict(data["live"])
        assert data["p99_ordering"]["sim"]
        rendered = report.render()
        assert "p99 ordering (live)" in rendered
