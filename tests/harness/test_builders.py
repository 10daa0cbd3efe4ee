"""Unit tests for the strategy-builder registry."""

import pytest

from repro.cluster.client import DispatchStrategy
from repro.cluster.messages import RequestMessage
from repro.cluster.server import client_address, server_address
from repro.harness import (
    ExperimentConfig,
    KNOWN_STRATEGIES,
    StrategyBuilder,
    get_builder,
    register_strategy,
    run_experiment,
    strategy_names,
    unregister_strategy,
)
from repro.harness.builders import (
    C3Builder,
    CreditsBuilder,
    HedgedBuilder,
    ModelBuilder,
    ObliviousBuilder,
)


class TestRegistry:
    def test_every_known_strategy_resolves(self):
        for name in KNOWN_STRATEGIES:
            builder = get_builder(name)
            assert builder.name == name
            assert builder.description

    def test_known_strategies_matches_seed_set(self):
        assert set(strategy_names()) >= {
            "c3", "c3-norate", "hedged",
            "oblivious-random", "oblivious-rr", "oblivious-lor",
            "equalmax-credits", "unifincr-credits", "fifo-credits",
            "sjf-credits", "edf-credits",
            "equalmax-model", "unifincr-model", "fifo-model", "sjf-model",
        }

    def test_figure2_order_is_first(self):
        assert tuple(KNOWN_STRATEGIES)[:5] == (
            "c3",
            "equalmax-credits",
            "equalmax-model",
            "unifincr-credits",
            "unifincr-model",
        )

    def test_unknown_name_error_lists_known(self):
        with pytest.raises(ValueError, match="unknown strategy.*c3"):
            get_builder("warp-drive")

    def test_builder_classes(self):
        assert isinstance(get_builder("c3"), C3Builder)
        assert isinstance(get_builder("oblivious-rr"), ObliviousBuilder)
        assert isinstance(get_builder("hedged"), HedgedBuilder)
        assert isinstance(get_builder("sjf-credits"), CreditsBuilder)
        assert isinstance(get_builder("unifincr-model"), ModelBuilder)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(HedgedBuilder())

    def test_abstract_name_rejected(self):
        with pytest.raises(ValueError):
            register_strategy(StrategyBuilder())


class _EchoRandomStrategy(DispatchStrategy):
    """Minimal third-party strategy: random replica, no priorities."""

    name = "echo-random"

    def __init__(self, placement, service_model, stream):
        self.placement = placement
        self.service_model = service_model
        self.stream = stream

    def prepare(self, task):
        requests = []
        for op in task.operations:
            partition = self.placement.partition_of(op.key)
            request = RequestMessage(
                op=op,
                task_id=task.task_id,
                client_id=self.client.client_id,
                partition=partition,
                created_at=self.client.env.now,
                expected_service=self.service_model.expected_time(op.value_size),
            )
            replicas = self.placement.replicas_of(partition)
            request.server_id = replicas[self.stream.randrange(len(replicas))]
            requests.append(request)
        return requests

    def dispatch(self, requests):
        for request in requests:
            request.dispatched_at = self.client.env.now
            self.client.network.send(
                client_address(self.client.client_id),
                server_address(request.server_id),
                request,
            )


class _EchoBuilder(StrategyBuilder):
    name = "test-echo"
    description = "third-party registration test strategy"

    def build_client_strategy(self, ctx, client_id):
        return _EchoRandomStrategy(
            ctx.placement,
            ctx.service_model,
            ctx.streams.stream(f"echo.{client_id}"),
        )


class TestThirdPartyRegistration:
    """KNOWN_STRATEGIES is live: registration makes a strategy usable
    everywhere (config validation, runner) without touching the harness."""

    def setup_method(self):
        register_strategy(_EchoBuilder())

    def teardown_method(self):
        unregister_strategy("test-echo")

    def test_live_view_sees_registration(self):
        assert "test-echo" in KNOWN_STRATEGIES
        unregister_strategy("test-echo")
        assert "test-echo" not in KNOWN_STRATEGIES

    def test_config_accepts_registered_strategy(self):
        cfg = ExperimentConfig(strategy="test-echo", n_tasks=10)
        assert cfg.strategy == "test-echo"

    def test_runner_runs_registered_strategy(self):
        cfg = ExperimentConfig(strategy="test-echo", n_tasks=200, n_keys=2000)
        result = run_experiment(cfg, seed=1)
        assert result.tasks_completed == 200
        assert result.requests_served > 200
