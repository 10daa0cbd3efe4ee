"""The streamed metrics bus: windowed snapshots sampled during a run.

Everything before this module reported metrics *after* a run finished
(``RunResult`` summaries, server stats deltas).  The bus makes the same
signals available *while* the run executes, in both realms: the
remediation driver (:mod:`repro.cluster.remediation`) takes a
:class:`BusSnapshot` from its :class:`BusSampler` on every clock tick --
virtual time in the simulation, wall time live, where the load generator
also streams each snapshot to the servers -- and ``repro serve`` exports
the server-side view as Prometheus text.

Snapshots are deliberately flat and JSON-friendly: the SLO breach
detector (:mod:`repro.metrics.slo`), the remediation policy, the
``repro watch`` CLI and the CI schema check all consume the same
:meth:`BusSnapshot.to_dict` shape.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from collections import deque

from .reservoir import exact_quantile
from .timeseries import WindowedRate

#: Trailing window (model seconds) of every snapshot's percentiles,
#: rates and mean queue depths.
DEFAULT_BUS_WINDOW = 0.1

#: Cadence (model seconds) at which the remediation driver samples.
DEFAULT_BUS_INTERVAL = 0.02


@dataclasses.dataclass(frozen=True)
class BusSnapshot:
    """One windowed observation of the running cluster.

    Latencies are in model milliseconds (the paper's reporting unit);
    rates are per model second; ``queue_depths[i]`` is server ``i``'s
    queue length at sample time (live: the latest piggybacked feedback).
    """

    time: float
    seq: int
    window: float
    #: Tasks completed inside the trailing window.
    window_count: int
    #: Cumulative completions at sample time.
    completed: int
    latency_p50_ms: float
    latency_p99_ms: float
    arrival_rate: float
    served_rate: float
    #: Windowed-mean backlog (queued + in service) per server.  Means,
    #: not instantaneous reads: strategies with client-side pacing (C3's
    #: rate limiter, credit gates) keep server queues near zero while
    #: saturating the cores, so a point sample misses the heat entirely.
    queue_depths: _t.Tuple[float, ...]

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        out = dataclasses.asdict(self)
        out["queue_depths"] = list(self.queue_depths)
        return out


class WindowedQuantiles:
    """(time, value) recorder answering trailing-window quantile queries.

    The bus's latency view: the ticker records every completion latency
    and asks for p50/p99 over the last ``window`` at each tick.  Like
    :class:`~repro.metrics.timeseries.WindowedRate`, queries must not lag
    recording.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._events: _t.Deque[_t.Tuple[float, float]] = deque()
        self._last_time = float("-inf")
        self.total = 0

    def record(self, time: float, value: float) -> None:
        if time < self._last_time:
            raise ValueError("time went backwards")
        self._last_time = time
        self._events.append((time, value))
        self.total += 1

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        events = self._events
        while events and events[0][0] < cutoff:
            events.popleft()

    def count(self, now: float) -> int:
        if now < self._last_time:
            raise ValueError(f"stale query: now={now} < {self._last_time}")
        self._evict(now)
        return len(self._events)

    def quantiles(
        self, now: float, qs: _t.Sequence[float]
    ) -> _t.Tuple[float, ...]:
        """Quantiles (fractions in [0, 1]) of the window; 0.0 when empty."""
        if now < self._last_time:
            raise ValueError(f"stale query: now={now} < {self._last_time}")
        self._evict(now)
        if not self._events:
            return tuple(0.0 for _ in qs)
        ordered = sorted(v for _, v in self._events)
        return tuple(exact_quantile(ordered, q) for q in qs)


class BusSampler:
    """Accumulates per-run observations and assembles snapshots.

    Realm-agnostic: the remediation driver feeds it every arrival
    (:meth:`observe_arrival`) and completion (:meth:`observe_completion`)
    and, on every tick, whatever queue depths its substrate can see, then
    asks for a :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._latencies = WindowedQuantiles(DEFAULT_BUS_WINDOW)
        self._arrivals = WindowedRate(DEFAULT_BUS_WINDOW)
        self._depth_samples: _t.Deque[_t.Tuple[float, _t.Tuple[float, ...]]] = (
            deque()
        )
        self.completed = 0

    def observe_arrival(self, now: float) -> None:
        self._arrivals.record(now)

    def observe_completion(self, now: float, latency: float) -> None:
        self.completed += 1
        self._latencies.record(now, latency)

    def observe_depths(
        self, now: float, depths: _t.Sequence[float]
    ) -> None:
        """Record one per-server backlog sample (queued + in service)."""
        self._depth_samples.append((now, tuple(float(d) for d in depths)))
        cutoff = now - DEFAULT_BUS_WINDOW
        while self._depth_samples and self._depth_samples[0][0] < cutoff:
            self._depth_samples.popleft()

    def _mean_depths(self) -> _t.Tuple[float, ...]:
        samples = self._depth_samples
        if not samples:
            return ()
        n_servers = len(samples[-1][1])
        sums = [0.0] * n_servers
        for _, depths in samples:
            for i, d in enumerate(depths):
                sums[i] += d
        return tuple(s / len(samples) for s in sums)

    def snapshot(self, now: float, seq: int) -> BusSnapshot:
        window_count = self._latencies.count(now)
        p50, p99 = self._latencies.quantiles(now, (0.50, 0.99))
        return BusSnapshot(
            time=now,
            seq=seq,
            window=DEFAULT_BUS_WINDOW,
            window_count=window_count,
            completed=self.completed,
            latency_p50_ms=p50 * 1e3,
            latency_p99_ms=p99 * 1e3,
            arrival_rate=self._arrivals.count(now) / DEFAULT_BUS_WINDOW,
            served_rate=window_count / DEFAULT_BUS_WINDOW,
            queue_depths=self._mean_depths(),
        )


def escape_label_value(value: _t.Any) -> str:
    """Escape one label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside a quoted label value.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def prometheus_line(
    name: str,
    value: float,
    labels: _t.Optional[_t.Mapping[str, _t.Any]] = None,
) -> str:
    """One Prometheus text-format sample line (label values escaped)."""
    if labels:
        rendered = ",".join(
            f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


#: Stats keys that are running totals, exported as ``counter``; every
#: other key is a point-in-time read, a ``gauge``.
COUNTER_KEYS = frozenset({
    "completed", "rejected", "crashes", "busy_time_s", "lateness_total_s",
    "traced_ops", "frames_received", "frames_sent", "bytes_sent", "writes",
    "congestion_frames_sent",
})  # fmt: skip


def _is_number(value: _t.Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _families(
    prefix: str,
    rows: _t.Sequence[_t.Tuple[_t.Any, _t.Mapping[str, _t.Any]]],
    help_texts: _t.Optional[_t.Mapping[str, str]] = None,
) -> str:
    """Exposition text of one metric family per numeric key of ``rows`` --
    ``(labels, flat mapping)`` pairs -- announced once (``# HELP`` /
    ``# TYPE``) and holding one sample per row that carries the key.  Keys
    are sanitized to ``[a-zA-Z0-9_]`` and prefixed."""
    lines = []
    keys = {key for _, row in rows for key, value in row.items() if _is_number(value)}
    for key in sorted(keys):
        safe = "".join(c if c.isalnum() or c == "_" else "_" for c in key)
        name = f"{prefix}_{safe}"
        help_text = (help_texts or {}).get(key, f"repro metric {safe}")
        lines.append(f"# HELP {name} {escape_help_text(help_text)}")
        lines.append(f"# TYPE {name} {'counter' if key in COUNTER_KEYS else 'gauge'}")
        lines.extend(
            prometheus_line(name, row[key], labels)
            for labels, row in rows
            if _is_number(row.get(key))
        )
    return "".join(line + "\n" for line in lines)


def render_prometheus(
    metrics: _t.Mapping[str, float],
    prefix: str = "repro",
    labels: _t.Optional[_t.Mapping[str, _t.Any]] = None,
    help_texts: _t.Optional[_t.Mapping[str, str]] = None,
) -> str:
    """Render a flat metric mapping as Prometheus exposition text: one
    family per key (:data:`COUNTER_KEYS` typed ``counter``), every sample
    carrying ``labels``, every line ending with the newline the format
    requires.  ``help_texts`` overrides the generic help string per
    (unprefixed) key."""
    return _families(prefix, [(labels, metrics)], help_texts)


def render_stats(stats: _t.Mapping[str, _t.Any]) -> str:
    """A ``stats`` frame -- one server's, or a cluster's merged one -- as
    Prometheus exposition text.  The family names *are* the frame's keys:
    ``repro_serve_<key>`` for its scalars, ``repro_serve_worker_<key>
    {worker=}`` for each worker entry's, ``repro_client_<field>{reporter=}``
    for each reported client-side bus snapshot's; one ``# TYPE`` per family
    however many processes the frame was merged from."""
    workers = [
        ({"worker": w.get("worker")}, {k: v for k, v in w.items() if k != "worker"})
        for w in stats.get("workers", ())
    ]
    reports = stats.get("client_bus") or {}
    clients = [({"reporter": name}, reports[name]) for name in sorted(reports)]
    return (
        render_prometheus(stats, prefix="repro_serve")
        + _families("repro_serve_worker", workers)
        + _families("repro_client", clients)
    )


def merge_reports(
    into: _t.Dict[str, _t.Mapping[str, _t.Any]],
    reports: _t.Mapping[str, _t.Mapping[str, _t.Any]],
) -> None:
    """Fold per-reporter bus snapshots into ``into``, the newest ``seq`` per
    reporter winning: reports are fire-and-forget, so generations race on
    one connection and endpoints may have seen different ones."""
    for reporter, snapshot in reports.items():
        seen = into.get(reporter)
        if seen is None or float(snapshot.get("seq", 0)) >= float(seen.get("seq", 0)):
            into[reporter] = snapshot


def escape_help_text(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")
