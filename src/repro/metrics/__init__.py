"""Metrics: histograms, samples, summaries, windowed rates, the bus."""

from .bus import (
    BusEvent,
    BusSampler,
    BusSnapshot,
    MetricsBus,
    WindowedQuantiles,
    render_prometheus,
    render_stats,
)
from .histogram import LogHistogram
from .reservoir import ExactSample, exact_quantile
from .slo import BreachDetector, SloPolicy
from .summary import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    PAPER_PERCENTILES,
    mean_of_summaries,
)
from .timeseries import EwmaEstimator, WindowedRate

__all__ = [
    "BreachDetector",
    "BusEvent",
    "BusSampler",
    "BusSnapshot",
    "DEFAULT_PERCENTILES",
    "EwmaEstimator",
    "ExactSample",
    "LatencySummary",
    "LogHistogram",
    "MetricsBus",
    "PAPER_PERCENTILES",
    "SloPolicy",
    "WindowedQuantiles",
    "WindowedRate",
    "exact_quantile",
    "mean_of_summaries",
    "render_prometheus",
    "render_stats",
]
