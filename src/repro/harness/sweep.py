"""Generic parameter sweeps: one axis, many strategies, common seeds.

The ablation benches all share one shape -- vary a single knob, run a set
of strategies per point on a common seed grid, tabulate percentiles and
ratios.  This module packages that shape for downstream users.

Example::

    from repro.harness import ExperimentConfig
    from repro.harness.sweep import sweep

    result = sweep(
        ExperimentConfig(n_tasks=5000),
        parameter="load",
        values=[0.5, 0.7, 0.9],
        strategies=("c3", "unifincr-credits"),
        seeds=(1, 2),
    )
    print(result.render(percentile=99.0))

Dotted parameter paths reach into the nested cluster spec:
``parameter="cluster.one_way_latency"``.

``base`` may also be the *name* of a library scenario -- the sweep then
runs over that scenario's workload and fault schedule::

    result = sweep("straggler", parameter="load", values=[0.5, 0.7],
                   strategies=("c3", "unifincr-credits"))
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from ..analysis.tables import render_table
from .builders import get_builder
from .config import ExperimentConfig
from .parallel import run_grid
from .results import ComparisonResult, compare_strategies


def _replace_parameter(
    config: ExperimentConfig, parameter: str, value: _t.Any
) -> ExperimentConfig:
    """Return a config copy with ``parameter`` (possibly dotted) set.

    Dotted paths descend through nested dataclasses to arbitrary depth
    (``cluster.one_way_latency``, or deeper once topology grows nested
    specs); each intermediate segment must name a dataclass field whose
    value is itself a dataclass.
    """
    parts = parameter.split(".")
    if not all(parts):
        raise ValueError(f"malformed parameter path {parameter!r}")

    def _rebuild(obj: _t.Any, path: _t.Sequence[str], prefix: str) -> _t.Any:
        here = f"{prefix}.{path[0]}" if prefix else path[0]
        if not dataclasses.is_dataclass(obj):
            raise ValueError(
                f"cannot descend into {prefix!r}: "
                f"{type(obj).__name__} is not a dataclass"
            )
        names = tuple(f.name for f in dataclasses.fields(obj))
        if path[0] not in names:
            raise ValueError(
                f"unknown config field {here!r}; "
                f"{type(obj).__name__} has: {', '.join(names)}"
            )
        if len(path) == 1:
            return dataclasses.replace(obj, **{path[0]: value})
        inner = _rebuild(getattr(obj, path[0]), path[1:], here)
        return dataclasses.replace(obj, **{path[0]: inner})

    return _t.cast(ExperimentConfig, _rebuild(config, parts, ""))


@dataclasses.dataclass
class SweepResult:
    """Comparisons indexed by the swept parameter's values."""

    parameter: str
    values: _t.Tuple[_t.Any, ...]
    strategies: _t.Tuple[str, ...]
    comparisons: _t.Dict[_t.Any, ComparisonResult]

    def rows(self, percentile: float = 99.0) -> _t.List[_t.Dict[str, _t.Any]]:
        """Flat table rows: one per swept value, strategies as columns."""
        out: _t.List[_t.Dict[str, _t.Any]] = []
        for v in self.values:
            row: _t.Dict[str, _t.Any] = {self.parameter: v}
            for name in self.strategies:
                row[f"{name} p{percentile:g} (ms)"] = (
                    self.comparisons[v].summary_of(name).percentile(percentile) * 1e3
                )
            out.append(row)
        return out

    def render(self, percentile: float = 99.0) -> str:
        return render_table(
            self.rows(percentile),
            title=f"sweep over {self.parameter} (p{percentile:g})",
        )

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "points": {
                str(v): self.comparisons[v].to_dict() for v in self.values
            },
        }

    def canonical_json(self) -> str:
        """Key-sorted compact JSON -- the differential harness's yardstick."""
        return json.dumps(self.to_dict(), sort_keys=True)


def sweep(
    base: _t.Union[ExperimentConfig, str],
    parameter: str,
    values: _t.Sequence[_t.Any],
    strategies: _t.Sequence[str],
    seeds: _t.Sequence[int] = (1,),
    n_tasks: _t.Optional[int] = None,
    jobs: int = 1,
) -> SweepResult:
    """Run the full (value x strategy x seed) grid.

    ``base`` is either a ready :class:`ExperimentConfig` or the name of a
    library scenario; ``n_tasks`` (scenario mode only) scales the run.
    ``jobs`` workers (see :mod:`repro.harness.parallel`) share the *whole*
    grid -- not one value at a time; results are merged back in grid
    order, so the output does not depend on the worker count.
    """
    if isinstance(base, str):
        from ..scenarios import get_scenario  # local import: scenarios sit above

        base = get_scenario(base).build_config(n_tasks=n_tasks)
    elif n_tasks is not None:
        raise ValueError("n_tasks is only meaningful with a scenario name")
    if not values:
        raise ValueError("sweep needs at least one value")
    if not strategies:
        raise ValueError("sweep needs at least one strategy")
    for name in strategies:
        get_builder(name)  # fail fast with the table's helpful error

    # One strategy->config mapping per swept value, as a *list* so a
    # repeated value stays its own grid cell (the later duplicate then
    # overwrites the earlier in `comparisons`).
    grid_configs: _t.List[_t.Dict[str, ExperimentConfig]] = []
    for value in values:
        config = _replace_parameter(base, parameter, value)
        grid_configs.append(
            {name: config.with_strategy(name) for name in strategies}
        )
    comparisons = {
        value: compare_strategies(runs)
        for value, runs in zip(values, run_grid(grid_configs, seeds, jobs))
    }
    return SweepResult(
        parameter=parameter,
        values=tuple(values),
        strategies=tuple(strategies),
        comparisons=comparisons,
    )
