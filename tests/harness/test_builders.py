"""Unit tests for the strategy-builder table."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Network
from repro.cluster.network import ConstantLatency
from repro.cluster.server import client_address
from repro.harness import (
    ExperimentConfig,
    KNOWN_STRATEGIES,
    StrategyBuilder,
    get_builder,
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
        assert isinstance(KNOWN_STRATEGIES, tuple)
        assert set(KNOWN_STRATEGIES) == {
            "c3", "c3-norate", "hedged",
            "oblivious-random", "oblivious-rr", "oblivious-lor",
            "equalmax-credits", "unifincr-credits", "fifo-credits",
            "sjf-credits", "edf-credits",
            "equalmax-model", "unifincr-model",
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


# -- server order: the discipline is redundant for every strategy ----

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
