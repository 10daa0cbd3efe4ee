"""Metrics: histograms, samples, summaries, windowed rates, Prometheus text."""

from .bus import render_prometheus, render_stats
from .histogram import LogHistogram
from .reservoir import ExactSample, exact_quantile
from .summary import (
    DEFAULT_PERCENTILES,
    LatencySummary,
    PAPER_PERCENTILES,
    mean_of_summaries,
)
from .timeseries import EwmaEstimator, WindowedRate

__all__ = [
    "DEFAULT_PERCENTILES",
    "EwmaEstimator",
    "ExactSample",
    "LatencySummary",
    "LogHistogram",
    "PAPER_PERCENTILES",
    "WindowedRate",
    "exact_quantile",
    "mean_of_summaries",
    "render_prometheus",
    "render_stats",
]
