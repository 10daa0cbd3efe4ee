"""repro -- reproduction of *BRB: BetteR Batch Scheduling to Reduce Tail
Latencies in Cloud Data Stores* (Reda, Suresh, Canini, Braithwaite --
ACM SIGCOMM 2015).

The package is layered bottom-up:

* :mod:`repro.sim` -- deterministic discrete-event kernel (virtual time).
* :mod:`repro.metrics` -- histograms, samples, percentile summaries.
* :mod:`repro.workload` -- fan-outs, Pareto value sizes, Poisson arrivals,
  the SoundCloud-like trace generator and capacity calibration.
* :mod:`repro.cluster` -- the replicated/partitioned data-store substrate:
  multi-core servers, clients, network, placement.
* :mod:`repro.scheduling` -- the stand-alone queue sort key, timed by the
  layer benchmark only; servers order their queues by each request's
  priority tuple.
* :mod:`repro.baselines` -- replica selectors incl. the C3 baseline.
* :mod:`repro.core` -- the paper's contribution: task-aware splitting,
  EqualMax / UnifIncr priorities, the credits realization and the ideal
  global-queue model.
* :mod:`repro.harness` / :mod:`repro.analysis` -- experiment configs, the
  strategy-builder table, runner, aggregation and report rendering.
* :mod:`repro.scenarios` -- named workload scenarios composing config
  overrides with scripted fault schedules.

Quickstart::

    from repro.harness import ExperimentConfig, run_experiment

    result = run_experiment(
        ExperimentConfig(strategy="unifincr-credits", n_tasks=5000), seed=1
    )
    print(result.summary((50.0, 95.0, 99.0)))
"""

from . import (
    analysis,
    baselines,
    cluster,
    core,
    harness,
    metrics,
    scenarios,
    scheduling,
    sim,
    workload,
)
from .harness import (
    ExperimentConfig,
    figure1_toy,
    figure2,
    run_experiment,
    run_seeds,
)

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "__version__",
    "analysis",
    "baselines",
    "cluster",
    "core",
    "figure1_toy",
    "figure2",
    "harness",
    "metrics",
    "run_experiment",
    "run_seeds",
    "scenarios",
    "scheduling",
    "sim",
    "workload",
]
