"""Task and operation models, and the generator that assembles them.

A *task* is the unit end-user request (the paper's terminology): it fans
out into *operations* (individual key reads).  The cluster later groups a
task's operations into *sub-tasks* -- one per replica group -- which is
where BRB's priority assignment happens.
"""

from __future__ import annotations

import _random
import functools
import typing as _t
from array import array

from .._compat import slots_dataclass
from ..sim.rng import Stream
from .arrivals import PoissonArrivals
from .fanout import FanoutDistribution
from .popularity import PopularityModel
from .valuesize import GeneralizedParetoValueSize


@slots_dataclass(init=False)
class Operation:
    """A single key read within a task.

    Written once and never mutated, but not ``frozen``: a frozen
    ``__init__`` pays one ``object.__setattr__`` call per field, and one of
    these is built per request -- which is also why ``__init__`` is written
    out, with the validation inline.
    """

    #: Id unique within the whole trace (assigned by the generator).
    op_id: int
    #: Id of the task this operation belongs to.
    task_id: int
    #: The key being read.
    key: int
    #: Size of the value stored under ``key``, in bytes.
    value_size: int

    def __init__(self, op_id: int, task_id: int, key: int, value_size: int) -> None:
        if value_size <= 0:
            raise ValueError(f"operation {op_id}: value_size must be positive")
        self.op_id = op_id
        self.task_id = task_id
        self.key = key
        self.value_size = value_size


@slots_dataclass()
class Task:
    """A batched end-user request: a set of operations issued together."""

    task_id: int
    #: Virtual time at which the task arrives at its client.
    arrival_time: float
    #: Index of the client (application server) that receives the task.
    client_id: int
    operations: _t.Tuple[Operation, ...]

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError(f"task {self.task_id} has no operations")
        if self.arrival_time < 0:
            raise ValueError(f"task {self.task_id}: negative arrival time")

    @property
    def fanout(self) -> int:
        """Number of operations in the task."""
        return len(self.operations)

    @property
    def total_bytes(self) -> int:
        """Sum of the value sizes the task will read."""
        return sum(op.value_size for op in self.operations)

    def keys(self) -> _t.List[int]:
        return [op.key for op in self.operations]


#: Keys below this get a slot in a process-wide size table (4 bytes each,
#: allocated as far as the largest key drawn so far); a key above it --
#: no configured keyspace comes near -- is drawn on every access.
TABLE_KEYS = 1 << 22


@functools.lru_cache(maxsize=8)
def _size_table(distribution: _t.Hashable, seed: int) -> "array[int]":
    """The process's sizes for one ``(distribution, seed)``: slot ``key``
    holds that key's size once some registry has drawn it, 0 before
    (sizes are >= 1).  A size is a pure function of the pair and the key,
    so every registry of the pair -- figure 2's strategies at one seed,
    a sweep's values, the benchmark's repeats -- reads the others' draws
    without being able to tell.  Eight tables let figure 2 at paper scale
    (six seeds, config-major) share each seed's table across its five
    strategies; an evicted table lives on in the registries that hold it."""
    return array("i")


class ValueSizeRegistry:
    """Consistent key -> value size mapping.

    A key's value size is drawn once (from the configured distribution,
    seeded by the key itself) and reused on every subsequent access -- the
    same key cannot be 100 bytes in one task and 1 MB in the next.  This
    consistency is what lets clients *forecast* service times from value
    sizes, the information BRB's cost model relies on.

    ``registry[key]`` reads the process's table for ``(distribution,
    seed)`` (:func:`_size_table`) and draws only a key no registry of the
    process has drawn yet.  The draw reseeds one scratch stream with the
    key's own seed through the C ``seed`` that ``Random.seed`` calls for
    an int once its type checks pass (and clears ``gauss_next``, as it
    does): the state a ``Stream`` built for that key starts from, without
    one generator per distinct key or the Python wrapper per draw.
    """

    def __init__(self, distribution: GeneralizedParetoValueSize, seed: int) -> None:
        self.distribution = distribution
        self.seed = int(seed)
        self._key_stream = Stream(0, "value")
        self._table = _size_table(distribution, self.seed)

    def __getitem__(self, key: int) -> int:
        table = self._table
        if 0 <= key < len(table):
            size = table[key]
            if size:
                return size
        return self._draw(key)

    def _draw(self, key: int) -> int:
        stream = self._key_stream
        _random.Random.seed(stream, self.seed ^ (key * 0x9E3779B97F4A7C15 % (1 << 61)))
        stream.gauss_next = None
        size = self.distribution.sample(stream)
        if 0 <= key < TABLE_KEYS:
            table = self._table
            if key >= len(table):
                table.frombytes(bytes(table.itemsize * (key + 1 - len(table))))
            table[key] = size
        return size


#: Draws buffered per stream by the task generator.  Purely an
#: amortization knob: block draws are byte-identical to per-call draws
#: (each stream is dedicated to one purpose, so drawing ahead is
#: invisible), the size only trades memory for dispatch overhead.
ARRIVAL_BLOCK = 256

#: Tasks the run's feeder (:class:`repro.harness.runner.Feeder`) draws
#: back to back when its drawn ones run out, so a paced process does not
#: draw every task cold.  Invisible to every draw, like the block above;
#: a refill holds the loop ≈ 1 ms of wall time (≈ 0.04 model-ms at the
#: live realm's default time scale of 25), which the open loop's median
#: feels slightly (``docs/performance.md``, Stage I).
TASK_BLOCK = 16


class TaskGenerator:
    """Assembles tasks from fan-out, popularity, value-size and arrivals.

    Deterministic given its streams: the same (config, seed) produces the
    same trace, and strategy-internal randomness cannot perturb it (streams
    are dedicated -- see :mod:`repro.sim.rng`).

    Arrival gaps, popularity draws and client ids are pre-drawn in blocks
    of :data:`ARRIVAL_BLOCK` (see ``docs/performance.md``); because every
    stream serves exactly one purpose, buffering ahead cannot change any
    draw another component sees, and the blocks themselves are produced by
    the same sequential calls the unbuffered generator made.  The models
    are fixed at construction, so a block never outlives its model.
    """

    def __init__(
        self,
        fanout: FanoutDistribution,
        popularity: PopularityModel,
        value_sizes: ValueSizeRegistry,
        arrivals: PoissonArrivals,
        n_clients: int,
        streams: "_StreamsLike",
    ) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        self.fanout = fanout
        self.popularity = popularity
        self.value_sizes = value_sizes
        self.arrivals = arrivals
        self.n_clients = int(n_clients)
        self._fanout_stream = streams.stream("workload.fanout")
        self._key_stream = streams.stream("workload.keys")
        self._arrival_stream = streams.stream("workload.arrivals")
        self._client_stream = streams.stream("workload.clients")
        self._next_task_id = 0
        self._next_op_id = 0
        self._clock = 0.0
        # Per-stream block buffers (list + cursor), refilled on demand.
        self._gap_buffer: _t.List[float] = []
        self._gap_pos = 0
        self._key_buffer: _t.List[int] = []
        self._key_pos = 0
        self._client_buffer: _t.List[int] = []
        self._client_pos = 0

    def _draw_key_buffered(self) -> int:
        """One popularity draw from the pre-drawn block (refilling it).

        Produces exactly the sequence ``popularity.sample_key(stream)``
        would -- the blocks are built by those same sequential calls --
        so handing this to :meth:`PopularityModel.sample_distinct` as the
        draw source keeps one single copy of the distinct-key algorithm.
        """
        pos = self._key_pos
        buf = self._key_buffer
        if pos >= len(buf):
            buf = self._key_buffer = self.popularity.sample_block(
                self._key_stream, ARRIVAL_BLOCK
            )
            pos = 0
        self._key_pos = pos + 1
        return buf[pos]

    def _distinct_keys(self, count: int) -> _t.List[int]:
        """``count`` distinct keys via the buffered draw source."""
        return self.popularity.sample_distinct(
            self._key_stream, count, next_key=self._draw_key_buffered
        )

    def next_task(self) -> Task:
        """Generate the next task in arrival order."""
        pos = self._gap_pos
        if pos >= len(self._gap_buffer):
            self._gap_buffer = self.arrivals.interarrival_block(
                self._arrival_stream, ARRIVAL_BLOCK
            )
            pos = 0
        self._gap_pos = pos + 1
        self._clock += self._gap_buffer[pos]

        fanout = self.fanout.sample(self._fanout_stream)
        keys = self._distinct_keys(min(fanout, self.popularity.n_keys))
        task_id = self._next_task_id
        self._next_task_id += 1
        sizes = self.value_sizes
        first_op_id = self._next_op_id
        self._next_op_id = first_op_id + len(keys)
        ops = [
            Operation(op_id, task_id, key, sizes[key])
            for op_id, key in enumerate(keys, first_op_id)
        ]

        pos = self._client_pos
        if pos >= len(self._client_buffer):
            draw = self._client_stream.randrange
            n = self.n_clients
            self._client_buffer = [draw(n) for _ in range(ARRIVAL_BLOCK)]
            pos = 0
        self._client_pos = pos + 1
        return Task(task_id, self._clock, self._client_buffer[pos], tuple(ops))

    def generate(self, n_tasks: int) -> _t.List[Task]:
        """Materialize a trace of ``n_tasks`` tasks."""
        if n_tasks < 0:
            raise ValueError("n_tasks must be non-negative")
        return [self.next_task() for _ in range(n_tasks)]


class _StreamsLike(_t.Protocol):  # pragma: no cover - typing helper
    def stream(self, name: str) -> Stream: ...


def trace_stats(tasks: _t.Sequence[Task]) -> _t.Dict[str, float]:
    """Summary statistics of a generated trace (``examples/workload_stats.py``
    prints them)."""
    if not tasks:
        raise ValueError("empty trace")
    n_ops = sum(t.fanout for t in tasks)
    total_bytes = sum(t.total_bytes for t in tasks)
    duration = tasks[-1].arrival_time - tasks[0].arrival_time
    return {
        "n_tasks": float(len(tasks)),
        "n_operations": float(n_ops),
        "mean_fanout": n_ops / len(tasks),
        "max_fanout": float(max(t.fanout for t in tasks)),
        "mean_value_size": total_bytes / n_ops,
        "duration": duration,
        "task_rate": (len(tasks) - 1) / duration if duration > 0 else float("inf"),
    }
