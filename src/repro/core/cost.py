"""Cost model: forecasting request and sub-task service times.

BRB schedules by *expected* service time ("based on the size of the value
they are requesting").  The forecaster shares the deterministic part of
the servers' service-time model -- clients know value sizes (the data model
stores them with the keys) and the cluster's calibrated cost curve, but
not the stochastic noise a specific execution will see.
"""

from __future__ import annotations

import typing as _t

from .._compat import slots_dataclass
from ..workload.calibration import ServiceTimeModel
from ..workload.tasks import Operation, Task


@slots_dataclass()
class SubTask:
    """All operations of one task destined for one replica group."""

    task_id: int
    partition: int
    operations: _t.Sequence[Operation]
    #: Forecast cost of serving the whole sub-task at a single replica
    #: (sum of per-op costs: the ops serialize in the worst case).
    cost: float
    #: Per-operation forecast costs, aligned with ``operations``.
    op_costs: _t.Sequence[float]

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("sub-task must contain at least one operation")
        if len(self.op_costs) != len(self.operations):
            raise ValueError("op_costs misaligned with operations")

    @property
    def size(self) -> int:
        return len(self.operations)


class CostModel:
    """Forecasts service times from value sizes.

    Forecasts are memoized per exact value size: the registry maps each
    key to one fixed size, and the service model's deterministic part is a
    pure function of that size, so UnifIncr/EqualMax priority assignment
    was recomputing the identical forecast for every re-read of a key.
    The memo key is the exact size (the degenerate "bucket" -- any
    coarser bucketing would change forecasts and break the byte-identical
    determinism guarantee), and the forecast is server-independent
    because the calibrated cost curve is cluster-wide.
    """

    def __init__(self, service_model: ServiceTimeModel) -> None:
        self.service_model = service_model
        self._forecast_cache: _t.Dict[int, float] = {}

    def op_cost(self, op: Operation) -> float:
        """Forecast service time of a single operation (memoized)."""
        size = op.value_size
        cost = self._forecast_cache.get(size)
        if cost is None:
            cost = self.service_model.expected_time(size)
            self._forecast_cache[size] = cost
        return cost

    def subtask_cost(self, ops: _t.Sequence[Operation]) -> float:
        """Forecast completion cost of ops serialized at one replica."""
        return sum(map(self.op_cost, ops))


def split_task(
    task: Task,
    partition_of: _t.Callable[[int], int],
    cost_model: CostModel,
) -> _t.List[SubTask]:
    """Partition a task's operations into sub-tasks (one per replica group).

    This is the first step of BRB's client-side algorithm: "clients
    subdivide [the task] into a set of sub-tasks, one for each replica
    group; a sub-task contains all requests for a distinct replica group."

    Sub-tasks are returned in deterministic order (ascending partition id)
    so priority tie-breaking is reproducible.
    """
    op_cost = cost_model.op_cost
    groups: _t.Dict[int, _t.Tuple[_t.List[Operation], _t.List[float]]] = {}
    for op in task.operations:
        partition = partition_of(op.key)
        group = groups.get(partition)
        if group is None:
            group = groups[partition] = ([], [])
        group[0].append(op)
        group[1].append(op_cost(op))
    task_id = task.task_id
    return [
        SubTask(task_id, partition, ops, sum(op_costs), op_costs)
        for partition, (ops, op_costs) in sorted(groups.items())
    ]


def bottleneck(subtasks: _t.Sequence[SubTask]) -> SubTask:
    """The costliest sub-task -- the one that bounds task completion time.

    Ties break toward the smaller partition id (deterministic).
    """
    if not subtasks:
        raise ValueError("no sub-tasks")
    best = subtasks[0]
    for st in subtasks[1:]:
        if st.cost > best.cost:
            best = st
    return best
