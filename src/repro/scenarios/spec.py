"""Scenario specifications: named, frozen bundles of workload + faults.

A :class:`ScenarioSpec` composes the three axes an experiment varies --
workload parameters (load, skew, fan-out, ...), cluster topology, and a
:class:`~repro.cluster.faults.FaultSchedule` -- into one named, immutable
object.  :meth:`ScenarioSpec.build_config` turns a spec into a concrete
:class:`~repro.harness.config.ExperimentConfig` for any strategy and task
count, so every strategy can run every scenario.

A spec holds its settings as one :class:`ExperimentConfig`, validated
when the spec is made; use :func:`make_scenario` to build one from plain
dicts.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..cluster.faults import FaultSchedule, NO_FAULTS
from ..cluster.topology import ClusterSpec
from ..harness.config import ExperimentConfig

#: Config fields a scenario does not set through ``overrides``: the
#: strategy and the scenario name are chosen per build, the topology and
#: the fault script have arguments of their own.
_RESERVED = frozenset({"strategy", "cluster", "fault_schedule", "scenario"})


def _changed(obj: _t.Any, default: _t.Any) -> _t.Dict[str, _t.Any]:
    """The fields of dataclass ``obj`` that differ from ``default``'s,
    sorted by name."""
    return {
        name: getattr(obj, name)
        for name in sorted(f.name for f in dataclasses.fields(obj))
        if getattr(obj, name) != getattr(default, name)
    }


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: workload + topology + fault script."""

    name: str
    #: One-line human description for ``repro scenarios``.
    summary: str
    #: The scenario's settings; ``strategy`` and ``scenario`` are set by
    #: :meth:`build_config`.
    config: ExperimentConfig

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")

    @property
    def faults(self) -> FaultSchedule:
        """Scripted fault events this scenario injects."""
        return self.config.fault_schedule

    # -- materialization --------------------------------------------------------
    def build_config(
        self,
        strategy: str = "unifincr-credits",
        n_tasks: _t.Optional[int] = None,
        **overrides: _t.Any,
    ) -> ExperimentConfig:
        """A concrete :class:`ExperimentConfig` for this scenario.

        ``overrides`` (and ``n_tasks``) win over the scenario's own
        settings, so callers can scale a scenario down for smoke tests
        without redefining it.  A whole ``cluster=ClusterSpec(...)`` or
        ``fault_schedule=FaultSchedule(...)`` may be passed to replace the
        scenario's topology or fault script outright.
        """
        if "scenario" in overrides:
            raise ValueError(
                "the scenario name is recorded automatically; "
                "it cannot be overridden"
            )
        if n_tasks is not None:
            overrides["n_tasks"] = n_tasks
        return dataclasses.replace(
            self.config, strategy=strategy, scenario=self.name, **overrides
        )

    def _overrides(self) -> _t.Tuple[_t.Dict[str, _t.Any], _t.Dict[str, _t.Any]]:
        """(config fields, cluster fields) that differ from the defaults."""
        config = _changed(self.config, ExperimentConfig())
        for name in _RESERVED:
            config.pop(name, None)
        return config, _changed(self.config.cluster, ClusterSpec())

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        """Machine-readable form (``repro scenarios --json``): the name,
        the workload/cluster parameter overrides and the typed fault
        events, so loadgen configs and external tooling never have to
        scrape the human-oriented listing."""
        config, cluster = self._overrides()
        return {
            "name": self.name,
            "summary": self.summary,
            "config_overrides": config,
            "cluster_overrides": cluster,
            "faults": self.faults.to_dicts(),
        }

    def describe(self) -> str:
        config, cluster = self._overrides()
        lines = [f"{self.name}: {self.summary}"]
        lines += [f"  {field} = {value!r}" for field, value in config.items()]
        lines += [f"  cluster.{field} = {value!r}" for field, value in cluster.items()]
        lines += [f"  fault: {fault}" for fault in self.faults.describe()]
        return "\n".join(lines)


def make_scenario(
    name: str,
    summary: str,
    overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None,
    cluster: _t.Optional[_t.Mapping[str, _t.Any]] = None,
    faults: FaultSchedule = NO_FAULTS,
) -> ScenarioSpec:
    """Build a frozen :class:`ScenarioSpec` from plain dicts."""
    reserved = sorted(_RESERVED.intersection(overrides or {}))
    if reserved:
        raise ValueError(f"scenario {name!r} may not override {reserved[0]!r} directly")
    config = ExperimentConfig(
        cluster=ClusterSpec(**(cluster or {})), fault_schedule=faults, **(overrides or {})
    )
    return ScenarioSpec(name, summary, config)
