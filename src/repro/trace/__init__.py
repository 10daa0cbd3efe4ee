"""Request tracing: sampled span trees and critical-path tail attribution.

See ``docs/observability.md`` ("Tracing & tail attribution") for the span
schema, the sampling semantics, and the ``repro trace`` CLI.
"""

from .analysis import (
    Attribution,
    RunTraces,
    attribution,
    diff_attributions,
    load_traces,
    render_attribution,
    render_diff,
    render_slowest,
    slowest,
    write_traces,
)
from .recorder import TraceRecorder, is_sampled, trace_hash
from .spans import SEGMENT_KINDS, Span, TaskTrace

__all__ = [
    "Attribution",
    "RunTraces",
    "SEGMENT_KINDS",
    "Span",
    "TaskTrace",
    "TraceRecorder",
    "attribution",
    "diff_attributions",
    "is_sampled",
    "load_traces",
    "render_attribution",
    "render_diff",
    "render_slowest",
    "slowest",
    "trace_hash",
    "write_traces",
]
