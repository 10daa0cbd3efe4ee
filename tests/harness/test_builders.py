"""Unit tests for the strategy-builder registry."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Network
from repro.cluster.client import DispatchStrategy
from repro.cluster.messages import RequestMessage
from repro.cluster.network import ConstantLatency
from repro.cluster.server import client_address, server_address
from repro.harness import (
    ExperimentConfig,
    KNOWN_STRATEGIES,
    StrategyBuilder,
    get_builder,
    register_strategy,
    run_experiment,
    unregister_strategy,
)
from repro.harness.builders import (
    C3Builder,
    ClusterContext,
    CreditsBuilder,
    HedgedBuilder,
    ModelBuilder,
    ObliviousBuilder,
)
from repro.sim import Environment, Stream, StreamFactory
from repro.workload import ServiceTimeModel
from repro.workload.tasks import Operation, Task


class TestRegistry:
    def test_every_known_strategy_resolves(self):
        for name in KNOWN_STRATEGIES:
            builder = get_builder(name)
            assert builder.name == name
            assert builder.description

    def test_known_strategies_matches_seed_set(self):
        assert set(KNOWN_STRATEGIES) >= {
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


# -- server order: the discipline is redundant for every registered strategy ----

#: Strategies whose builder keeps the default queue-owning ``BackendServer``
#: (the model realizations pull from the global queue instead).
PUSH_STRATEGIES = [
    name
    for name in KNOWN_STRATEGIES
    if type(get_builder(name)).build_server is StrategyBuilder.build_server
]

#: One server, one core, four partitions: every request of every task queues
#: at the same place, and one task's sub-tasks interleave their op ids there.
ONE_SERVER = ClusterSpec(
    n_servers=1, cores_per_server=1, replication_factor=1, n_partitions=4
)

#: Any positive, size-dependent service time will do: the property is about
#: order, and building the calibrated workload per example costs 25 ms.
SERVICE_MODEL = ServiceTimeModel(overhead=1e-4, bandwidth=1e7)

#: (gap before the task arrives -- zero makes same-instant batches -- and
#: the task's (key, value size) operations).
_TASKS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-4, 1e-3]),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 4096)),
            min_size=1,
            max_size=6,
        ),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("name", PUSH_STRATEGIES)
@given(tasks=_TASKS)
@settings(max_examples=40, deadline=None)
def test_push_server_starts_in_priority_then_arrival_order(name, tasks):
    """Whatever a strategy's own requests look like, its simulated server
    starts them smallest ``(priority tuple, arrival order)`` first -- the
    order ``LiveWorker``'s heap has by construction.  The builder's
    discipline therefore decides nothing the priority tuple does not."""
    config = ExperimentConfig(
        strategy=name, n_tasks=len(tasks), n_clients=1, cluster=ONE_SERVER
    )
    env = Environment()
    network = Network(env, latency=ConstantLatency(0.0), stream=Stream(0, "n"))
    ctx = ClusterContext(
        config=config,
        env=env,
        network=network,
        placement=ONE_SERVER.make_placement(),
        service_model=SERVICE_MODEL,
        streams=StreamFactory(1),
    )
    builder = get_builder(name)
    builder.build_shared(ctx)
    strategy = builder.build_client_strategy(ctx, 0)
    strategy.bind(SimpleNamespace(client_id=0, env=env))
    server = builder.build_server(ctx, 0)
    network.register(client_address(0), lambda response: None)
    arrival = {}
    violations = []

    def start(request, _start=server._start):
        mine = (tuple(request.priority), arrival[request.op.op_id])
        for _key, _seq, queued in server._heap:
            other = (tuple(queued.priority), arrival[queued.op.op_id])
            if other < mine:
                violations.append((request.op.op_id, queued.op.op_id))
        _start(request)

    server._start = start

    def arrive(task):
        # The strategy's own requests, in the order it emits them, straight
        # into the server: gates and pacing decide *when*, never the order.
        for request in strategy.prepare(task):
            arrival[request.op.op_id] = len(arrival)
            server.handle_message(request)

    at, op_id = 0.0, 0
    for task_id, (gap, ops) in enumerate(tasks):
        at += gap
        operations = tuple(
            Operation(op_id + i, task_id, key, size)
            for i, (key, size) in enumerate(ops)
        )
        op_id += len(operations)
        env.call_at(at, arrive, Task(task_id, at, 0, operations))
    # Until, not to exhaustion: congestion checks and credit epochs recur.
    env.run(until=at + 1.0)
    assert server.completed == op_id
    assert not violations
