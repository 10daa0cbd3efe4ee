"""Regeneration entry points for every figure in the paper.

* :func:`figure1_toy` -- the worked example of Figure 1: two tasks, three
  single-core servers, unit service times; shows the task-oblivious
  schedule finishing T2 in 2 time units and the task-aware schedule in 1.
* :func:`figure2` -- the headline evaluation: median/p95/p99 task latency
  for C3 and the four BRB variants over the SoundCloud-like workload.

Both return plain data; :func:`render_figure1` / :func:`render_figure2`
render the one text ``repro figure1``/``figure2`` print and ``results/`` records.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..analysis import grouped_bar_chart, percentile_matrix, ratio_table
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

    t1_completion: float
    t2_completion: float


def figure1_toy(task_aware: bool, assigner_name: str = "unifincr") -> Figure1Result:
    """Run the Figure 1 toy under either schedule.

    ``task_aware=False``: FIFO servers, requests dispatched in task order
    (T1 first), so S1 serves A before E -- T2 needs 2 time units.
    ``task_aware=True``: the ideal priority queue; S1 serves E before A --
    T2 completes in 1 unit while T1 still takes 2.
    """
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
    clients[0].submit(t1)
    clients[1].submit(t2)
    env.run()
    return Figure1Result(
        t1_completion=completions[0],
        t2_completion=completions[1],
    )


def render_figure1(
    oblivious: Figure1Result, unifincr: Figure1Result, equalmax: Figure1Result
) -> str:
    """The toy's completion-time table, against the paper's numbers."""
    lines = [
        "Figure 1 -- toy schedule (completion times in service-time units)",
        "",
        f"{'schedule':<26} {'T1':>5} {'T2':>5}",
        f"{'task-oblivious (paper: 2/2)':<26} {oblivious.t1_completion:>5.1f} {oblivious.t2_completion:>5.1f}",
        f"{'task-aware/unifincr (2/1)':<26} {unifincr.t1_completion:>5.1f} {unifincr.t2_completion:>5.1f}",
        f"{'task-aware/equalmax (2/1)':<26} {equalmax.t1_completion:>5.1f} {equalmax.t2_completion:>5.1f}",
    ]
    return "\n".join(lines)


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


#: Figure 2's ratio tables: (slower, faster, label) per table.
_FIGURE2_RATIOS = (
    ("c3", "equalmax-credits", "C3 / EqualMax-credits"),
    ("c3", "unifincr-credits", "C3 / UnifIncr-credits"),
    ("equalmax-credits", "equalmax-model", "EqualMax credits/model (paper <= 1.38 @ p99)"),
    ("unifincr-credits", "unifincr-model", "UnifIncr credits/model"),
)


def render_figure2(
    comparison: ComparisonResult, n_tasks: int, seeds: _t.Sequence[int]
) -> str:
    """Figure 2 as text: the percentile matrix, the bar chart, and the
    paper's two headline ratios (BRB over C3, credits over the ideal)."""
    summaries = {name: comparison.summary_of(name) for name in comparison.strategies}
    series = {
        f"p{p:g}": {name: s.percentile(p) * 1e3 for name, s in summaries.items()}
        for p in PAPER_PERCENTILES
    }
    matrix = percentile_matrix(
        {name: s.percentiles for name, s in summaries.items()},
        percentiles=PAPER_PERCENTILES,
    )
    return "\n\n".join(
        [
            f"Figure 2 reproduction -- {n_tasks} tasks x {len(seeds)} seeds "
            f"(paper: 500k x 6)",
            matrix,
            grouped_bar_chart(series, title="Figure 2 -- task read latency (ms)"),
            *(
                ratio_table(comparison.speedup(slow, fast), label=label)
                for slow, fast, label in _FIGURE2_RATIOS
            ),
        ]
    )
