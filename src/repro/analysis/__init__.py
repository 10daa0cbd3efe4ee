"""Analysis: tables, ASCII plots and statistics for experiment reports."""

from .ascii_plots import cdf_sketch, grouped_bar_chart
from .stats import (
    bootstrap_ci,
    coefficient_of_variation,
    mean,
    slo_attainment,
    stdev,
)
from .tables import percentile_matrix, ratio_table, render_table

__all__ = [
    "bootstrap_ci",
    "cdf_sketch",
    "coefficient_of_variation",
    "grouped_bar_chart",
    "mean",
    "percentile_matrix",
    "ratio_table",
    "render_table",
    "slo_attainment",
    "stdev",
]
