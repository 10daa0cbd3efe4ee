"""Span trees: one sampled multiget, decomposed into typed time segments.

A :class:`TaskTrace` is the Dapper-style record of a single sampled
multiget: the root span covers arrival to last-response, and one child
:class:`Span` per *accepted* sub-task response carries the request's full
timestamp trail.  Segments are derived from the trail rather than stored,
so the JSONL artifact keeps raw timestamps and every consumer (the
critical-path analysis, the CI invariant checks, ad-hoc jq) recomputes
durations from the same source of truth.

Segment taxonomy (``SEGMENT_KINDS``, in life-cycle order):

``sched_lag``
    Root-level only: intended arrival to actual submit.  Zero in the
    simulation (tasks are submitted at their arrival event); in the live
    realm it is the open-loop generator's lateness for this task.
``credit_wait`` / ``hedge_wait``
    Submit to dispatch.  For a primary request this is client-side gating
    (BRB credit gates, C3 pacing); for a hedge copy it is the time the
    hedge timer waited before duplicating, so the two are reported as
    distinct kinds.
``network_out``
    Dispatch to server enqueue.  In the live realm the server-side
    enqueue instant is reconstructed from wire durations, so this segment
    absorbs the outbound wire plus any client/server scheduling skew --
    which keeps the telescoped sum exact.
``queue_wait``
    Enqueue to service start, as measured by the serving realm itself.
``service``
    Service start to completion.
``network_in``
    Completion to client-side response arrival (zero in the live realm,
    where arrival is the reconstruction anchor).

No kind covers a re-sent request: the stack never re-sends one (live
queue-full is a hard error, remediation acts on placement for *future*
requests).
"""

from __future__ import annotations

import typing as _t

from .._compat import slots_dataclass

#: Every segment kind an attribution table may report, in life-cycle order.
SEGMENT_KINDS: _t.Tuple[str, ...] = (
    "sched_lag",
    "credit_wait",
    "hedge_wait",
    "network_out",
    "queue_wait",
    "service",
    "network_in",
)


@slots_dataclass()
class Span:
    """One accepted sub-task response of a sampled multiget.

    Timestamps are model seconds on the run's clock; ``end`` is the
    client-side response arrival (the instant the recorder observed it).
    """

    server: int
    partition: int
    key: int
    hedge: bool
    created: float
    dispatched: float
    enqueued: float
    service_start: float
    completed: float
    end: float

    def segments(self) -> _t.Dict[str, float]:
        """The span's duration, split into typed segments.

        The segments telescope: their sum is exactly ``end - created``
        (floating-point addition aside), which is what lets the critical
        path account for a task's full measured latency.
        """
        pre = self.dispatched - self.created
        out: _t.Dict[str, float] = {
            "hedge_wait" if self.hedge else "credit_wait": pre,
            "network_out": self.enqueued - self.dispatched,
            "queue_wait": self.service_start - self.enqueued,
            "service": self.completed - self.service_start,
            "network_in": self.end - self.completed,
        }
        return out

    @property
    def duration(self) -> float:
        return self.end - self.created

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "server": self.server,
            "partition": self.partition,
            "key": self.key,
            "hedge": self.hedge,
            "created": self.created,
            "dispatched": self.dispatched,
            "enqueued": self.enqueued,
            "service_start": self.service_start,
            "completed": self.completed,
            "end": self.end,
        }

    @classmethod
    def from_dict(cls, raw: _t.Mapping[str, _t.Any]) -> "Span":
        return cls(
            server=int(raw["server"]),
            partition=int(raw["partition"]),
            key=int(raw["key"]),
            hedge=bool(raw["hedge"]),
            created=float(raw["created"]),
            dispatched=float(raw["dispatched"]),
            enqueued=float(raw["enqueued"]),
            service_start=float(raw["service_start"]),
            completed=float(raw["completed"]),
            end=float(raw["end"]),
        )


@slots_dataclass()
class TaskTrace:
    """Root span of one sampled multiget plus its child spans."""

    trace_id: int
    task_id: int
    client_id: int
    #: Intended arrival time (the latency epoch the runner measures from).
    start: float
    #: Arrival of the last accepted response (= completion time).
    end: float
    spans: _t.List[Span]

    @property
    def latency(self) -> float:
        return self.end - self.start

    def critical_span(self) -> Span:
        """The child whose response completed the task (max ``end``)."""
        if not self.spans:
            raise ValueError(f"trace {self.trace_id} has no spans")
        return max(self.spans, key=lambda s: s.end)

    def critical_path(self) -> _t.List[_t.Tuple[str, float, Span]]:
        """(segment kind, duration, owning span) along the critical path.

        The path is the chain that determined the task's completion: the
        root-level wait until the last-finishing span was submitted, then
        that span's own segments.  Durations sum to :attr:`latency`
        exactly, so tail attribution accounts for 100% of measured time.
        """
        span = self.critical_span()
        path = [("sched_lag", span.created - self.start, span)]
        path.extend((kind, value, span) for kind, value in span.segments().items())
        return path

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "trace_id": self.trace_id,
            "task_id": self.task_id,
            "client_id": self.client_id,
            "start": self.start,
            "end": self.end,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, raw: _t.Mapping[str, _t.Any]) -> "TaskTrace":
        return cls(
            trace_id=int(raw["trace_id"]),
            task_id=int(raw["task_id"]),
            client_id=int(raw["client_id"]),
            start=float(raw["start"]),
            end=float(raw["end"]),
            spans=[Span.from_dict(s) for s in raw.get("spans", ())],
        )
