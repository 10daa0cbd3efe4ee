"""Scenario specifications: named, frozen bundles of workload + faults.

A :class:`ScenarioSpec` composes the three axes an experiment varies --
workload parameters (load, skew, fan-out, ...), cluster topology, and a
:class:`~repro.cluster.faults.FaultSchedule` -- into one named, immutable
object.  :meth:`ScenarioSpec.build_config` turns a spec into a concrete
:class:`~repro.harness.config.ExperimentConfig` for any strategy and task
count, so every strategy can run every scenario.

Specs are frozen (overrides are stored as tuples of pairs) so they can be
module-level constants and compare/hash by value; use
:func:`make_scenario` to build one from plain dicts.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..cluster.faults import FaultSchedule, NO_FAULTS
from ..cluster.topology import ClusterSpec
from ..harness.config import ExperimentConfig


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One named scenario: workload + topology + fault script."""

    name: str
    #: One-line human description for ``repro scenarios``.
    summary: str
    #: ``ExperimentConfig`` field overrides, as a tuple of (field, value).
    config_overrides: _t.Tuple[_t.Tuple[str, _t.Any], ...] = ()
    #: ``ClusterSpec`` field overrides, as a tuple of (field, value).
    cluster_overrides: _t.Tuple[_t.Tuple[str, _t.Any], ...] = ()
    #: Scripted fault events this scenario injects.
    faults: FaultSchedule = NO_FAULTS

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        object.__setattr__(
            self, "config_overrides", tuple(tuple(kv) for kv in self.config_overrides)
        )
        object.__setattr__(
            self, "cluster_overrides", tuple(tuple(kv) for kv in self.cluster_overrides)
        )
        reserved = {"strategy", "cluster", "fault_schedule", "scenario"}
        for field, _ in self.config_overrides:
            if field in reserved:
                raise ValueError(
                    f"scenario {self.name!r} may not override {field!r} directly"
                )

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
        cluster = overrides.pop("cluster", None)
        if cluster is None:
            cluster = ClusterSpec(**dict(self.cluster_overrides))
        fault_schedule = overrides.pop("fault_schedule", self.faults)
        fields: _t.Dict[str, _t.Any] = dict(self.config_overrides)
        fields.update(overrides)
        if n_tasks is not None:
            fields["n_tasks"] = n_tasks
        return ExperimentConfig(
            strategy=strategy,
            cluster=cluster,
            fault_schedule=fault_schedule,
            scenario=self.name,
            **fields,
        )

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        """Machine-readable form (``repro scenarios --json``): the name,
        the workload/cluster parameter overrides and the typed fault
        events, so loadgen configs and external tooling never have to
        scrape the human-oriented listing."""
        return {
            "name": self.name,
            "summary": self.summary,
            "config_overrides": dict(self.config_overrides),
            "cluster_overrides": dict(self.cluster_overrides),
            "faults": self.faults.to_dicts(),
        }

    def describe(self) -> str:
        lines = [f"{self.name}: {self.summary}"]
        for field, value in self.config_overrides:
            lines.append(f"  {field} = {value!r}")
        for field, value in self.cluster_overrides:
            lines.append(f"  cluster.{field} = {value!r}")
        for fault in self.faults.describe():
            lines.append(f"  fault: {fault}")
        return "\n".join(lines)


def make_scenario(
    name: str,
    summary: str,
    overrides: _t.Optional[_t.Mapping[str, _t.Any]] = None,
    cluster: _t.Optional[_t.Mapping[str, _t.Any]] = None,
    faults: FaultSchedule = NO_FAULTS,
) -> ScenarioSpec:
    """Build a frozen :class:`ScenarioSpec` from plain dicts."""
    return ScenarioSpec(
        name=name,
        summary=summary,
        config_overrides=tuple(sorted((overrides or {}).items())),
        cluster_overrides=tuple(sorted((cluster or {}).items())),
        faults=faults,
    )
