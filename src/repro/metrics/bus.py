"""Prometheus text rendering of ``stats`` frames, and the fold of the
client-side bus reports they carry.

``repro serve`` exports each server's (or a cluster's merged) ``stats``
frame as Prometheus exposition text through :func:`render_stats`; the
``repro watch --prometheus`` view renders the same frame.  A load
generator running the SLO loop (:mod:`repro.cluster.remediation`) pushes
its client-side :class:`~repro.cluster.remediation.BusSnapshot` dicts to
every server, and :func:`merge_reports` keeps the newest one per
reporter.
"""

from __future__ import annotations

import typing as _t


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
