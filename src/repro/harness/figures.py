"""Regeneration entry points for every figure in the paper.

* :func:`figure1_toy` -- the worked example of Figure 1: two tasks, three
  single-core servers, unit service times; shows the task-oblivious
  schedule finishing T2 in 2 time units and the task-aware schedule in 1.
* :func:`figure2` -- the headline evaluation: median/p95/p99 task latency
  for C3 and the four BRB variants over the SoundCloud-like workload.

Both return plain data structures; the benchmarks render them with
:mod:`repro.analysis` and assert the paper's qualitative claims.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..baselines.selectors import RoundRobinSelector
from ..baselines.strategies import ObliviousStrategy
from ..cluster.client import Client
from ..cluster.network import ConstantLatency, Network
from ..placement import ExplicitPlacement
from ..cluster.server import BackendServer, PullServer
from ..core.brb_client import BRBModelStrategy
from ..core.model_queue import GlobalQueue
from ..core.priorities import make_assigner
from ..metrics.summary import PAPER_PERCENTILES
from ..sim.engine import Environment
from ..sim.rng import StreamFactory
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Operation, Task
from .config import ExperimentConfig, FIGURE2_STRATEGIES
from .parallel import run_grid
from .results import ComparisonResult, compare_strategies

# ---------------------------------------------------------------------------
# Figure 1: the worked toy example
# ---------------------------------------------------------------------------

#: Key ids for the toy's five operations.
KEY_A, KEY_B, KEY_C, KEY_D, KEY_E = 0, 1, 2, 3, 4


@dataclasses.dataclass(frozen=True)
class Figure1Result:
    """Completion times (in service-time units) of the toy's two tasks."""

    schedule: str
    t1_completion: float
    t2_completion: float


def _toy_setup() -> _t.Tuple[Environment, Network, ExplicitPlacement, ServiceTimeModel, _t.List[Task]]:
    env = Environment()
    streams = StreamFactory(0)
    network = Network(env, latency=ConstantLatency(0.0), stream=streams.stream("net"))
    # S1 holds {A, E}, S2 holds {B, C}, S3 holds {D}; replication factor 1.
    placement = ExplicitPlacement(
        key_to_partition={KEY_A: 0, KEY_E: 0, KEY_B: 1, KEY_C: 1, KEY_D: 2},
        partition_replicas=[(0,), (1,), (2,)],
        n_servers=3,
    )
    # Unit service times: overhead 0, bandwidth 1 byte/s, 1-byte values.
    service_model = ServiceTimeModel(overhead=0.0, bandwidth=1.0)
    t1 = Task(
        task_id=0,
        arrival_time=0.0,
        client_id=0,
        operations=tuple(
            Operation(op_id=i, task_id=0, key=key, value_size=1)
            for i, key in enumerate((KEY_A, KEY_B, KEY_C))
        ),
    )
    t2 = Task(
        task_id=1,
        arrival_time=0.0,
        client_id=1,
        operations=tuple(
            Operation(op_id=3 + i, task_id=1, key=key, value_size=1)
            for i, key in enumerate((KEY_D, KEY_E))
        ),
    )
    return env, network, placement, service_model, [t1, t2]


def figure1_toy(task_aware: bool, assigner_name: str = "unifincr") -> Figure1Result:
    """Run the Figure 1 toy under either schedule.

    ``task_aware=False``: FIFO servers, requests dispatched in task order
    (T1 first), so S1 serves A before E -- T2 needs 2 time units.
    ``task_aware=True``: the ideal priority queue; S1 serves E before A --
    T2 completes in 1 unit while T1 still takes 2.
    """
    env, network, placement, service_model, tasks = _toy_setup()
    streams = StreamFactory(0)
    completions: _t.Dict[int, float] = {}

    def on_complete(completion: _t.Any) -> None:
        completions[completion.task.task_id] = completion.completed_at

    # The two schedules differ only in the server engine and the client
    # strategy; the rig around them is one.
    if task_aware:
        global_queue = GlobalQueue(
            env, latency=ConstantLatency(0.0), stream=streams.stream("gq")
        )

        def make_server(server_id: int, **common: _t.Any) -> _t.Any:
            return PullServer(
                global_queue=global_queue,
                partitions=placement.partitions_of_server(server_id),
                server_id=server_id,
                **common,
            )

        def make_strategy() -> _t.Any:
            return BRBModelStrategy(
                placement,
                make_assigner(assigner_name),
                service_model,
                global_queue=global_queue,
            )

    else:

        def make_server(server_id: int, **common: _t.Any) -> _t.Any:
            return BackendServer(server_id=server_id, **common)

        def make_strategy() -> _t.Any:
            return ObliviousStrategy(placement, RoundRobinSelector(), service_model)

    for server_id in range(3):
        make_server(
            server_id,
            env=env,
            cores=1,
            service_model=service_model,
            network=network,
        )
    clients = [
        Client(
            env,
            client_id=i,
            network=network,
            strategy=make_strategy(),
            on_complete=on_complete,
        )
        for i in range(2)
    ]

    # T1 is submitted before T2 at the same instant, exactly as the
    # figure's task-oblivious schedule assumes.
    clients[0].submit(tasks[0])
    clients[1].submit(tasks[1])
    env.run()
    return Figure1Result(
        schedule="task-aware" if task_aware else "task-oblivious",
        t1_completion=completions[0],
        t2_completion=completions[1],
    )


# ---------------------------------------------------------------------------
# Figure 2: the headline comparison
# ---------------------------------------------------------------------------


def figure2(
    n_tasks: int = 20_000,
    seeds: _t.Sequence[int] = (1, 2, 3),
    strategies: _t.Sequence[str] = FIGURE2_STRATEGIES,
    jobs: int = 1,
    **config_overrides: _t.Any,
) -> ComparisonResult:
    """Reproduce Figure 2: run every strategy over a common seed grid.

    ``jobs`` workers (see :mod:`repro.harness.parallel`) share the full
    (strategy x seed) grid; the merge order is fixed, so the comparison
    does not depend on the worker count.
    """
    base = ExperimentConfig(n_tasks=n_tasks, **config_overrides)
    grid = [{name: base.with_strategy(name) for name in strategies}]
    return compare_strategies(run_grid(grid, seeds, jobs)[0])


def figure2_series(
    comparison: ComparisonResult,
) -> _t.Dict[str, _t.Dict[str, float]]:
    """Pivot a comparison into Figure 2's {percentile: {strategy: ms}}."""
    series: _t.Dict[str, _t.Dict[str, float]] = {}
    for p in PAPER_PERCENTILES:
        series[f"p{p:g}"] = {
            name: comparison.summary_of(name).percentile(p) * 1e3
            for name in comparison.strategies
        }
    return series
