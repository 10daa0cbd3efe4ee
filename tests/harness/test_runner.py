"""Integration-grade unit tests for the experiment runner.

Small task counts keep each run fast; the benchmarks exercise full scale.
"""

import gc
import hashlib
import json

import pytest

from repro.cluster.messages import ResponseMessage
from repro.cluster.network import Network
from repro.harness import KNOWN_STRATEGIES, ExperimentConfig, run_experiment, run_seeds
from repro.harness.config import WARMUP_FRACTION
from repro.scenarios import get_scenario
from repro.workload import PAPER_CLIENTS

SMALL = dict(n_tasks=400, n_keys=2000)


def small_cfg(strategy, **kw):
    args = dict(SMALL)
    args.update(kw)
    return ExperimentConfig(strategy=strategy, **args)


class TestRunExperiment:
    @pytest.mark.parametrize(
        "strategy",
        [
            "c3",
            "c3-norate",
            "oblivious-random",
            "oblivious-rr",
            "oblivious-lor",
            "equalmax-credits",
            "unifincr-credits",
            "fifo-credits",
            "sjf-credits",
            "edf-credits",
            "equalmax-model",
            "unifincr-model",
        ],
    )
    def test_every_strategy_completes_all_tasks(self, strategy):
        result = run_experiment(small_cfg(strategy), seed=1)
        assert result.tasks_completed == 400
        assert result.requests_served > 400  # fan-out > 1
        assert result.task_latencies.count == result.tasks_measured
        assert result.sim_duration > 0

    def test_warmup_exclusion(self, monkeypatch):
        cfg = small_cfg("oblivious-random")
        result = run_experiment(cfg, seed=1)
        assert WARMUP_FRACTION == 0.05
        assert result.tasks_measured == 380
        assert result.tasks_completed == 400
        # The runner reads the one constant: a longer cold start excludes more.
        monkeypatch.setattr("repro.harness.runner.WARMUP_FRACTION", 0.25)
        result = run_experiment(cfg, seed=1)
        assert result.tasks_measured == 300
        assert result.tasks_completed == 400

    def test_a_calendar_that_empties_early_fails_loudly(self, monkeypatch):
        """A lost reply leaves its task open: the calendar runs dry before
        the last completion stops the run, and the audit names the loss."""
        send = Network.send
        dropped = []

        def lossy(self, src, dst, message):
            if isinstance(message, ResponseMessage) and not dropped:
                dropped.append(message)
                return self.env.now
            return send(self, src, dst, message)

        monkeypatch.setattr(Network, "send", lossy)
        with pytest.raises(RuntimeError, match="lost tasks: 399 completed of 400"):
            run_experiment(small_cfg("oblivious-random"), seed=1)
        assert dropped

    def test_deterministic_given_seed(self):
        cfg = small_cfg("equalmax-credits")
        r1 = run_experiment(cfg, seed=7)
        r2 = run_experiment(cfg, seed=7)
        assert r1.task_latencies.values() == r2.task_latencies.values()
        assert r1.events_processed == r2.events_processed

    def test_seeds_differ(self):
        cfg = small_cfg("oblivious-lor")
        r1 = run_experiment(cfg, seed=1)
        r2 = run_experiment(cfg, seed=2)
        assert r1.task_latencies.values() != r2.task_latencies.values()

    def test_request_recording_optional(self):
        """Per-request records are the tracer's spans, off by default; at
        ``trace_sample=1`` every measured task has one span per request."""
        assert run_experiment(small_cfg("oblivious-random"), seed=1).traces is None
        cfg = small_cfg("oblivious-random", trace_sample=1.0)
        result = run_experiment(cfg, seed=1)
        fanout = {task.task_id: task.fanout for task in cfg.workload().generate(1)}
        assert len(result.traces) == result.tasks_measured
        assert all(len(t.spans) == fanout[t.task_id] for t in result.traces)

    def test_credits_extras_present(self):
        result = run_experiment(small_cfg("equalmax-credits"), seed=1)
        assert "congestion_signals" in result.extras
        assert "gated_requests" in result.extras

    def test_model_extras_present(self):
        result = run_experiment(small_cfg("unifincr-model"), seed=1)
        assert result.extras["global_queue_submitted"] == result.requests_served

    def test_summary_has_requested_percentiles(self):
        result = run_experiment(small_cfg("c3-norate"), seed=1)
        summary = result.summary((50.0, 95.0, 99.0))
        assert summary.percentile(50.0) <= summary.percentile(95.0)
        assert summary.percentile(95.0) <= summary.percentile(99.0)

    def test_latencies_exceed_network_floor(self):
        """No task can beat two one-way latencies plus one service time."""
        result = run_experiment(small_cfg("oblivious-random"), seed=3)
        floor = 2 * 50e-6
        assert result.task_latencies.min > floor

    def test_a_flash_crowd_run_is_pinned(self):
        """The whole ``to_dict()`` of a run whose flash crowd fires, pinned
        from when the feeder drew one task per submit: drawing tasks in
        blocks must leave every due time the arrival scale compresses.  The
        calendar entries it took are pinned apart, as the engine golden
        does: an engine change moves them and nothing else, and so are
        C3's limiter counters, which joined the extras after the digest."""
        config = get_scenario("flash-crowd").build_config(strategy="c3", n_tasks=3000)
        record = run_experiment(config, seed=7).to_dict()
        assert record["extras"]["flash_crowd_windows"] == 1.0
        assert record.pop("events_processed") == 85_209
        assert record["extras"].pop("c3_rate_cuts") == 38.0
        assert record["extras"].pop("c3_paced_requests") == 6751.0
        assert hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest() == (
            "25f52a7049097f8087b582935e737577e58dd63de3420f66d615293230d06453"
        )


def watch_closed_runs(monkeypatch):
    """Weak references to the parts of every run ``RunAssembly.close`` is
    called on from here on (taken just before it lets go of them)."""
    import weakref

    from repro.harness import RunAssembly

    watched = []
    close = RunAssembly.close

    def watching_close(run):
        if run.clients:
            watched.extend(
                weakref.ref(part)
                for part in (
                    run, run.clock, run.ctx.network, run.clients[0],
                    run.strategies[0], run.placement, run.tracker,
                )
            )  # fmt: skip
        close(run)

    monkeypatch.setattr(RunAssembly, "close", watching_close)
    return watched


class TestClose:
    """The fourth verb: a closed run has reverted what it did to the
    cluster and holds no reference cycle, so it is freed when its last
    reference goes -- not when the cycle collector next gets to it."""

    @pytest.mark.parametrize("strategy", list(KNOWN_STRATEGIES))
    def test_a_finished_run_is_freed_with_the_collector_off(
        self, strategy, monkeypatch
    ):
        watched = watch_closed_runs(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            result = run_experiment(small_cfg(strategy, n_tasks=600), seed=1)
            assert result.tasks_completed == 600
            assert len(watched) == 7
            assert [ref() for ref in watched] == [None] * 7
            assert gc.collect() < 20
        finally:
            gc.enable()

    def test_a_run_that_raises_is_closed_too(self, monkeypatch):
        watched = watch_closed_runs(monkeypatch)
        monkeypatch.setattr(
            "repro.harness.runner.CompletionTracker.on_complete",
            lambda self, completion: 1 / 0,
        )
        with pytest.raises(ZeroDivisionError):
            run_experiment(small_cfg("unifincr-credits"), seed=1)
        assert len(watched) == 7

    def test_close_reverts_open_windows_and_levers_and_is_idempotent(self):
        """What ``reset()`` promised: a run that ends mid-window and
        mid-episode leaves no server degraded and no lever applied, and
        closing twice changes nothing more."""
        import dataclasses

        from repro.cluster.faults import FaultSchedule, SlowdownFault

        config = dataclasses.replace(
            get_scenario("hot-shard-remediated").build_config(
                strategy="unifincr-credits", n_tasks=6000
            ),
            fault_schedule=FaultSchedule(
                (SlowdownFault(servers=(1,), factor=3.0, start=0.0),)
            ),
        )
        env, run, servers = run_to_first_remediation(config)
        assert servers[1].speed_factor == 3.0  # the permanent window is open
        assert run.placement.boosted or run.placement.excluded

        for _ in range(2):  # idempotent
            run.close()
            assert servers[1].speed_factor == 1.0
            assert not run.placement.boosted and not run.placement.excluded
            assert env.peek() == float("inf")  # no timer left to reopen anything
            assert not run.clients and not run.ctx.shared

    def test_remediation_leaves_the_hedge_budget_alone(self):
        """The SLO loop's one lever is placement: mid-episode, every
        hedged strategy still runs at the one fixed budget."""
        from repro.baselines import hedging

        config = get_scenario("hot-shard-remediated").build_config(
            strategy="hedged", n_tasks=6000
        )
        _, run, _ = run_to_first_remediation(config)
        try:
            assert run.placement.boosted
            hedged = [
                s for s in run.strategies if isinstance(s, hedging.HedgedStrategy)
            ]
            assert len(hedged) == PAPER_CLIENTS
            assert hedging.HEDGE_BUDGET == 0.1
        finally:
            run.close()


def run_to_first_remediation(config, seed=1):
    """Assemble a simulated run by hand and step it until the SLO loop's
    first action (mid-episode); returns ``(env, run, servers)``."""
    from repro.cluster import Network
    from repro.cluster.faults import SimFaultPort
    from repro.harness import RunAssembly
    from repro.sim import Environment
    from repro.sim.rng import StreamFactory

    streams = StreamFactory(seed)
    env = Environment()
    network = Network(env, stream=streams.stream("network.latency"))
    run = RunAssembly(config, streams, env, network, on_done=lambda: None)
    servers = [
        run.builder.build_server(run.ctx, server_id)
        for server_id in range(config.cluster.n_servers)
    ]
    run.arm(
        SimFaultPort(servers, network),
        lambda: [s.queue_length() + s.in_service for s in servers],
    )
    run.feed().step()
    while not run.remediation.actions:  # stop mid-episode
        env.step()
    return env, run, servers


class TestRunSeeds:
    def test_runs_each_seed(self):
        results = run_seeds(small_cfg("oblivious-random"), seeds=[1, 2, 3])
        assert [r.seed for r in results] == [1, 2, 3]

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_seeds(small_cfg("c3"), seeds=[])


class _StubClock:
    """A wall-ish clock that never runs anything: enough seam to assemble."""

    now = 0.0

    def call_later(self, delay, fn, arg=None):
        pass

    call_every = call_later


class _StubTransport:
    def __init__(self):
        self.handlers = {}

    def register(self, address, handler):
        self.handlers[address] = handler

    def send(self, src, dst, message):
        raise AssertionError("nothing may be sent while assembling")


class _NullPort:
    n_servers = 9


class TestRunAssemblyParity:
    """The assembly is the same object in both realms: same (config, seed)
    over the simulation's Environment/Network and over a stub wall
    clock/transport gives the same strategy stack, placement, warm-up
    boundary and task stream."""

    @pytest.mark.parametrize("strategy", ["unifincr-credits", "c3", "hedged"])
    def test_same_assembly_over_either_seam(self, strategy):
        from repro.cluster import Network
        from repro.harness import RunAssembly
        from repro.scenarios import get_scenario
        from repro.sim import Environment
        from repro.sim.rng import StreamFactory

        config = get_scenario("ring-rebalance").build_config(
            strategy=strategy, n_tasks=400
        )
        env = Environment()
        sim = RunAssembly(
            config,
            StreamFactory(5),
            env,
            Network(env, stream=StreamFactory(5).stream("network.latency")),
            on_done=lambda: None,
        )
        live = RunAssembly(
            config, StreamFactory(5), _StubClock(), _StubTransport(), lambda: None
        )
        tasks = {}
        for realm, run in (("sim", sim), ("live", live)):
            run.arm(_NullPort(), lambda: [0.0] * 9)
            tasks[realm] = [run.generator.next_task() for _ in range(200)]

        assert [type(s) for s in sim.strategies] == [type(s) for s in live.strategies]
        assert len(sim.clients) == len(live.clients) == PAPER_CLIENTS
        assert sim.warmup_tasks == live.warmup_tasks == 20
        assert sim.faults.schedule == live.faults.schedule == config.fault_schedule
        for key in range(0, config.n_keys, 97):
            assert sim.placement.replicas_of_key(key) == live.placement.replicas_of_key(key)
        assert tasks["sim"] == tasks["live"]
        # Same handlers on the transport, whatever it is made of.
        assert set(live.ctx.network.handlers) >= {
            ("client", c) for c in range(PAPER_CLIENTS)
        }
