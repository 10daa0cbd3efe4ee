"""Experiment harness: configs, builders, runner, aggregation, figures."""

from .builders import (
    ClusterContext,
    KNOWN_STRATEGIES,
    StrategyBuilder,
    get_builder,
)
from .config import (
    ExperimentConfig,
    FIGURE2_STRATEGIES,
)
from .figures import Figure1Result, figure1_toy, figure2, figure2_series
from .parallel import run_grid, run_seeds
from .results import (
    ComparisonResult,
    StrategyResult,
    compare_strategies,
    validate_summary_dict,
)
from .runner import RunAssembly, RunResult, run_experiment
from .sweep import SweepResult, sweep

__all__ = [
    "validate_summary_dict",
    "ClusterContext",
    "ComparisonResult",
    "ExperimentConfig",
    "FIGURE2_STRATEGIES",
    "Figure1Result",
    "KNOWN_STRATEGIES",
    "RunAssembly",
    "RunResult",
    "StrategyBuilder",
    "StrategyResult",
    "SweepResult",
    "compare_strategies",
    "figure1_toy",
    "figure2",
    "figure2_series",
    "get_builder",
    "run_experiment",
    "run_grid",
    "run_seeds",
    "sweep",
]
