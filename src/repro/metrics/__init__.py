"""Metrics: histograms, samples, summaries, time series, the bus."""

from .bus import (
    BusEvent,
    BusSampler,
    BusSnapshot,
    MetricsBus,
    WindowedQuantiles,
    render_prometheus,
    snapshot_prometheus,
)
from .histogram import LogHistogram
from .reservoir import ExactSample, Reservoir, exact_quantile
from .slo import BreachDetector, SloPolicy
from .summary import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    PAPER_PERCENTILES,
    mean_of_summaries,
)
from .timeseries import EwmaEstimator, TimeSeries, WindowedRate

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
    "Reservoir",
    "SloPolicy",
    "TimeSeries",
    "WindowedQuantiles",
    "WindowedRate",
    "exact_quantile",
    "mean_of_summaries",
    "render_prometheus",
    "snapshot_prometheus",
]
