"""Sampling span recorder, shared by both realms.

The recorder hangs off the two observation hooks every realm already
provides — ``Client(request_observer=...)`` fires once per *accepted*
response with the request's full timestamp trail, and
``Client(on_complete=...)`` fires once per finished task — so recording
adds **no events to the calendar and draws nothing from any RNG
stream**.  With sampling off the recorder is simply never constructed;
with sampling on, fixed-seed goldens stay byte-identical because the
schedule is untouched.

Sampling is a pure function of the task id (a splitmix64-style integer
hash), which gives three properties the realms need:

* deterministic across realms and processes — the same task is sampled
  in a sim run and its live twin, and by every loadgen process;
* independent of any seeded RNG — no perturbation of workloads;
* the sampled set for rate ``r`` is a superset of the set for ``r' < r``.

The 64-bit hash doubles as the wire trace id: the live transport asks
:meth:`TraceRecorder.wire_trace_id` per request and propagates the id in
the binary traced-op frame.
"""

from __future__ import annotations

import typing as _t

from ..cluster.messages import RequestMessage, TaskCompletion
from ..core.clock import Clock
from .spans import Span, TaskTrace

_MULT = 0x9E3779B97F4A7C15
_ADD = 0xD1B54A32D192ED03
_MASK = (1 << 64) - 1
_SCALE = float(1 << 64)


def trace_hash(task_id: int) -> int:
    """Deterministic 64-bit mix of a task id (splitmix64-flavored)."""
    return (task_id * _MULT + _ADD) & _MASK


def is_sampled(task_id: int, sample: float) -> bool:
    """Whether ``task_id`` falls in the sampled fraction ``sample``."""
    if sample <= 0.0:
        return False
    if sample >= 1.0:
        return True
    return trace_hash(task_id) / _SCALE < sample


class TraceRecorder:
    """Collects span trees for the sampled subset of a run's tasks.

    Parameters
    ----------
    clock:
        The realm's clock; ``clock.now`` stamps client-side response
        arrival (a span's ``end``).
    sample:
        Sampled fraction in ``[0, 1]``.
    warmup_tasks:
        Tasks below this id are warm-up and never sampled, mirroring the
        runner's latency accounting.

    Every sampled task's trace is kept, so tail attribution covers the
    whole run; ``sample`` is what bounds the memory (about 2.4 KB a
    trace, ``docs/observability.md``).
    """

    def __init__(
        self,
        clock: Clock,
        sample: float,
        warmup_tasks: int = 0,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.clock = clock
        self.sample = sample
        self.warmup_tasks = warmup_tasks
        self._traces: _t.List[TaskTrace] = []
        self._open: _t.Dict[int, _t.List[Span]] = {}

    # -- sampling ---------------------------------------------------------

    def sampled(self, task_id: int) -> bool:
        if task_id < self.warmup_tasks:
            return False
        return is_sampled(task_id, self.sample)

    def wire_trace_id(self, request: RequestMessage) -> _t.Optional[int]:
        """The 64-bit context to propagate for ``request``, if sampled."""
        if not self.sampled(request.task_id):
            return None
        return trace_hash(request.task_id)

    # -- observation hooks ------------------------------------------------

    def observe_request(self, request: RequestMessage) -> None:
        """Record one accepted response (``Client`` request observer)."""
        if not self.sampled(request.task_id):
            return
        span = Span(
            server=request.server_id,
            partition=request.partition,
            key=request.op.key,
            hedge=request.hedge,
            created=request.created_at,
            dispatched=request.dispatched_at,
            enqueued=request.enqueued_at,
            service_start=request.service_start_at,
            completed=request.completed_at,
            end=self.clock.now,
        )
        self._open.setdefault(request.task_id, []).append(span)

    def on_complete(self, completion: TaskCompletion) -> None:
        """Seal the span tree for a finished task (``Client`` on_complete)."""
        task = completion.task
        spans = self._open.pop(task.task_id, None)
        if spans is None:
            return
        self._traces.append(
            TaskTrace(
                trace_id=trace_hash(task.task_id),
                task_id=task.task_id,
                client_id=task.client_id,
                start=task.arrival_time,
                end=completion.completed_at,
                spans=spans,
            )
        )

    # -- results ----------------------------------------------------------

    @property
    def traces(self) -> _t.List[TaskTrace]:
        return self._traces

    def extras(self) -> _t.Dict[str, float]:
        """Audit counters folded into ``RunResult.extras`` when sampling:
        the sampled tasks that finished, and their spans."""
        return {
            "trace_sampled": float(len(self._traces)),
            "trace_spans": float(sum(len(t.spans) for t in self._traces)),
        }
