"""Experiment harness: configs, builders, runner, aggregation, figures."""

from .builders import (
    ClusterContext,
    KNOWN_STRATEGIES,
    StrategyBuilder,
    get_builder,
    register_strategy,
    unregister_strategy,
)
from .config import (
    ExperimentConfig,
    FIGURE2_STRATEGIES,
)
from .figures import Figure1Result, figure1_toy, figure2, figure2_series
from .parallel import (
    GridExecutor,
    ResultCache,
    RunJob,
    config_digest,
    run_grid,
    run_seeds,
)
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
    "GridExecutor",
    "KNOWN_STRATEGIES",
    "ResultCache",
    "RunAssembly",
    "RunJob",
    "RunResult",
    "StrategyBuilder",
    "StrategyResult",
    "SweepResult",
    "compare_strategies",
    "config_digest",
    "figure1_toy",
    "figure2",
    "figure2_series",
    "get_builder",
    "register_strategy",
    "run_experiment",
    "run_grid",
    "run_seeds",
    "sweep",
    "unregister_strategy",
]
