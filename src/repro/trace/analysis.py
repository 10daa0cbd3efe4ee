"""Critical-path tail attribution over trace artifacts.

The JSONL trace artifact written by ``repro run --trace-out`` / ``repro
loadgen --trace-out`` interleaves two record kinds:

* ``{"kind": "meta", ...}`` — one per run, carrying the run's identity
  (strategy, scenario, seed, realm, sample rate, task counts).  Every
  subsequent trace line belongs to the most recent meta line.
* ``{"kind": "trace", ...}`` — one serialized :class:`TaskTrace`.

Files concatenate cleanly (``cat run1.jsonl run2.jsonl``), which is how
multi-seed and multi-strategy corpora are assembled for ``repro trace
attribution --diff``.

The attribution itself walks each trace's **critical path** — the chain
of segments that determined the task's completion time (see
:meth:`TaskTrace.critical_path`) — restricted to the traces at or above
a tail percentile, and reports each segment kind's share of the summed
tail latency.  Because critical-path segments telescope to the measured
latency exactly, the shares always sum to 100%: slow requests cannot
hide time in an "other" bucket.  ``queue_wait`` is additionally broken
down by the partition (replica group) of the owning span, which is what
turns "p99 is queue-bound" into "p99 is queue-bound *on the hot shard*".
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import dataclass, field

from .spans import SEGMENT_KINDS, TaskTrace

__all__ = [
    "RunTraces",
    "Attribution",
    "load_traces",
    "write_traces",
    "attribution",
    "slowest",
    "diff_attributions",
    "render_attribution",
    "render_slowest",
    "render_diff",
]


@dataclass
class RunTraces:
    """All traces for one (strategy, scenario, realm) group, seeds merged."""

    strategy: str
    scenario: str
    realm: str
    sample: float
    seeds: _t.List[int] = field(default_factory=list)
    n_tasks: int = 0
    traces: _t.List[TaskTrace] = field(default_factory=list)

    @property
    def key(self) -> _t.Tuple[str, str, str]:
        return (self.strategy, self.scenario, self.realm)


def write_traces(
    path: str,
    traces: _t.Iterable[TaskTrace],
    meta: _t.Mapping[str, _t.Any],
    append: bool = False,
) -> int:
    """Write one run's meta line + trace lines as JSONL; returns #traces."""
    n = 0
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        record = {"kind": "meta"}
        record.update(meta)
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        for trace in traces:
            line = {"kind": "trace"}
            line.update(trace.to_dict())
            fh.write(json.dumps(line, sort_keys=True) + "\n")
            n += 1
    return n


def load_traces(paths: _t.Sequence[str]) -> _t.List[RunTraces]:
    """Parse JSONL trace files, grouping by (strategy, scenario, realm):
    a simulated and a live run of one cell stay two groups."""
    groups: _t.Dict[_t.Tuple[str, str, str], RunTraces] = {}
    current: _t.Optional[RunTraces] = None
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
                kind = record.get("kind")
                if kind == "meta":
                    key = (
                        str(record["strategy"]),
                        str(record["scenario"]),
                        str(record.get("realm", "?")),
                    )
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = RunTraces(
                            strategy=key[0],
                            scenario=key[1],
                            realm=key[2],
                            sample=float(record.get("sample", 0.0)),
                        )
                    seed = record.get("seed")
                    if seed is not None:
                        group.seeds.append(int(seed))
                    group.n_tasks += int(record.get("n_tasks", 0))
                    current = group
                elif kind == "trace":
                    if current is None:
                        raise ValueError(
                            f"{path}:{lineno}: trace record before any meta record"
                        )
                    current.traces.append(TaskTrace.from_dict(record))
                else:
                    raise ValueError(f"{path}:{lineno}: unknown record kind {kind!r}")
    return sorted(groups.values(), key=lambda g: g.key)


@dataclass
class Attribution:
    """Critical-path share per segment kind over one group's tail."""

    strategy: str
    scenario: str
    tail: float
    #: Number of traces in the group / in the analysed tail.
    n_traces: int
    n_tail: int
    #: Latency threshold that defines the tail (model seconds).
    threshold: float
    #: Mean latency of the tail traces (model seconds).
    tail_mean: float
    #: segment kind -> share of summed tail latency, in [0, 1].
    shares: _t.Dict[str, float]
    #: partition -> share of summed tail latency spent in its queue_wait.
    queue_by_partition: _t.Dict[int, float]

    def dominant(self) -> _t.Tuple[str, float]:
        kind = max(self.shares, key=lambda k: self.shares[k])
        return kind, self.shares[kind]

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "strategy": self.strategy,
            "scenario": self.scenario,
            "tail": self.tail,
            "n_traces": self.n_traces,
            "n_tail": self.n_tail,
            "threshold": self.threshold,
            "tail_mean": self.tail_mean,
            "shares": dict(self.shares),
            "queue_by_partition": {str(k): v for k, v in self.queue_by_partition.items()},
        }


def _percentile_threshold(latencies: _t.Sequence[float], tail: float) -> float:
    ordered = sorted(latencies)
    rank = max(0, min(len(ordered) - 1, int(round((tail / 100.0) * (len(ordered) - 1)))))
    return ordered[rank]


def attribution(group: RunTraces, tail: float = 99.0) -> Attribution:
    """Tail attribution for one (strategy, scenario, realm) group.

    ``tail`` is a percentile: traces with latency at or above the group's
    ``tail``-th percentile form the analysed set.
    """
    if not group.traces:
        raise ValueError(f"{group.strategy}/{group.scenario}: no traces to analyse")
    if not 0.0 <= tail < 100.0:
        raise ValueError(f"tail percentile must be in [0, 100), got {tail}")
    latencies = [t.latency for t in group.traces]
    threshold = _percentile_threshold(latencies, tail)
    tail_traces = [t for t in group.traces if t.latency >= threshold]
    totals: _t.Dict[str, float] = {kind: 0.0 for kind in SEGMENT_KINDS}
    queue_by_partition: _t.Dict[int, float] = {}
    total_latency = 0.0
    for trace in tail_traces:
        total_latency += trace.latency
        for kind, value, span in trace.critical_path():
            totals[kind] = totals.get(kind, 0.0) + value
            if kind == "queue_wait":
                queue_by_partition[span.partition] = (
                    queue_by_partition.get(span.partition, 0.0) + value
                )
    denom = total_latency if total_latency > 0 else 1.0
    return Attribution(
        strategy=group.strategy,
        scenario=group.scenario,
        tail=tail,
        n_traces=len(group.traces),
        n_tail=len(tail_traces),
        threshold=threshold,
        tail_mean=total_latency / max(1, len(tail_traces)),
        shares={kind: value / denom for kind, value in totals.items()},
        queue_by_partition={
            part: value / denom for part, value in sorted(queue_by_partition.items())
        },
    )


def slowest(group: RunTraces, k: int = 5) -> _t.List[TaskTrace]:
    """The ``k`` slowest traces of a group, slowest first."""
    return sorted(group.traces, key=lambda t: t.latency, reverse=True)[:k]


def diff_attributions(a: Attribution, b: Attribution) -> _t.Dict[str, float]:
    """Per-kind share delta ``b - a`` (positive = b spends more there)."""
    kinds = sorted(set(a.shares) | set(b.shares))
    return {kind: b.shares.get(kind, 0.0) - a.shares.get(kind, 0.0) for kind in kinds}


# -- rendering -------------------------------------------------------------


def _pct(value: float) -> str:
    return f"{100.0 * value:5.1f}%"


def _ms(seconds: float) -> str:
    return f"{1000.0 * seconds:.3f}ms"


def render_attribution(result: Attribution) -> str:
    """Human-readable table for one group's tail attribution."""
    lines = [
        f"{result.strategy} / {result.scenario} — p{result.tail:g} tail attribution",
        f"  traces={result.n_traces} tail_n={result.n_tail} "
        f"threshold={_ms(result.threshold)} tail_mean={_ms(result.tail_mean)}",
        "  segment          share",
        "  ---------------  ------",
    ]
    for kind in SEGMENT_KINDS:
        share = result.shares.get(kind, 0.0)
        if share == 0.0 and kind not in ("queue_wait", "service"):
            continue
        lines.append(f"  {kind:<15}  {_pct(share)}")
    if result.queue_by_partition:
        lines.append("  queue_wait by partition:")
        for part, share in result.queue_by_partition.items():
            lines.append(f"    partition {part:<4}  {_pct(share)}")
    return "\n".join(lines)


def render_slowest(group: RunTraces, traces: _t.Sequence[TaskTrace]) -> str:
    """Exemplar dump of the slowest traces of a group."""
    lines = [f"{group.strategy} / {group.scenario} — {len(traces)} slowest traces"]
    for trace in traces:
        lines.append(
            f"  task {trace.task_id} latency={_ms(trace.latency)} "
            f"spans={len(trace.spans)} trace_id={trace.trace_id:#018x}"
        )
        for kind, value, span in trace.critical_path():
            if value <= 0.0:
                continue
            lines.append(
                f"    {kind:<12} {_ms(value):>11}  "
                f"(server={span.server} partition={span.partition}"
                f"{' hedge' if span.hedge else ''})"
            )
    return "\n".join(lines)


def render_diff(a: Attribution, b: Attribution) -> str:
    """Side-by-side share comparison of two attributions."""
    deltas = diff_attributions(a, b)
    lines = [
        f"tail attribution diff (p{a.tail:g}): "
        f"A={a.strategy}/{a.scenario}  B={b.strategy}/{b.scenario}",
        f"  tail_mean A={_ms(a.tail_mean)}  B={_ms(b.tail_mean)}",
        "  segment          A       B       B-A",
        "  ---------------  ------  ------  -------",
    ]
    for kind in SEGMENT_KINDS:
        if kind not in deltas:
            continue
        sa = a.shares.get(kind, 0.0)
        sb = b.shares.get(kind, 0.0)
        if sa == 0.0 and sb == 0.0 and kind not in ("queue_wait", "service"):
            continue
        lines.append(
            f"  {kind:<15}  {_pct(sa)}  {_pct(sb)}  {100.0 * deltas[kind]:+6.1f}%"
        )
    parts = sorted(set(a.queue_by_partition) | set(b.queue_by_partition))
    if parts:
        lines.append("  queue_wait by partition (A vs B):")
        for part in parts:
            pa = a.queue_by_partition.get(part, 0.0)
            pb = b.queue_by_partition.get(part, 0.0)
            lines.append(f"    partition {part:<4}  {_pct(pa)}  {_pct(pb)}")
    return "\n".join(lines)
