"""Scenario layer: named workload + topology + fault-schedule bundles.

``SCENARIOS`` is the fixed table of named :class:`ScenarioSpec` objects
that :mod:`repro.scenarios.library` builds (``steady-state``,
``straggler``, ``recurring-gc``, ``flash-crowd``, ``hotspot-skew``,
``heterogeneous-cluster``, ``network-jitter``, ``crash-restart``, ...).
Every scenario composes with every strategy::

    from repro.scenarios import get_scenario
    from repro.harness import run_experiment

    config = get_scenario("straggler").build_config(strategy="c3", n_tasks=5000)
    result = run_experiment(config, seed=1)
"""

from .library import SCENARIOS, get_scenario
from .spec import ScenarioSpec, make_scenario

__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "get_scenario",
    "make_scenario",
]
