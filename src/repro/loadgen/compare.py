"""The sim<->live differential harness.

For each requested strategy, run the *same* scenario twice -- once through
the discrete-event simulation, once as a live load-generation run against
a loopback :class:`~repro.serve.server.LiveServer` -- and put the two
percentile summaries side by side.  Because both realms produce
:class:`~repro.harness.runner.RunResult` objects aggregated by the same
:func:`~repro.harness.results.compare_strategies`, the comparison is
apples-to-apples by construction.

What a comparison can and cannot assert (also in DESIGN.md): live numbers
include event-loop timer quantization and Python scheduling noise, so
*absolute* latencies drift from the simulation; the *ordering* of
strategies and the shape of the tail are the properties that must carry
over -- that is the claim BRB makes, and the thing this harness checks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import typing as _t

from ..analysis.tables import render_table
from ..harness.config import ExperimentConfig
from ..harness.parallel import run_grid
from ..harness.results import ComparisonResult, compare_strategies
from ..scenarios import get_scenario
from ..serve.server import DEFAULT_TIME_SCALE, LiveServer
from .driver import run_live_seeds


@dataclasses.dataclass
class CompareReport:
    """One scenario's paired sim and live comparisons."""

    scenario: str
    seeds: _t.Tuple[int, ...]
    sim: ComparisonResult
    live: ComparisonResult
    time_scale: float

    @property
    def strategies(self) -> _t.Tuple[str, ...]:
        return tuple(self.sim.strategies)

    def p99_ms(self, realm: str, strategy: str) -> float:
        comparison = self.sim if realm == "sim" else self.live
        return comparison.summary_of(strategy).p99 * 1e3

    def rows(self) -> _t.List[_t.Dict[str, _t.Any]]:
        rows = []
        for name in self.strategies:
            sim = self.sim.summary_of(name).scaled(1e3)
            live = self.live.summary_of(name).scaled(1e3)
            rows.append(
                {
                    "strategy": name,
                    "sim_p50_ms": sim.median,
                    "sim_p99_ms": sim.p99,
                    "live_p50_ms": live.median,
                    "live_p99_ms": live.p99,
                    "live/sim_p99": live.p99 / sim.p99 if sim.p99 > 0 else float("inf"),
                }
            )
        return rows

    def ordering(self, realm: str) -> _t.List[str]:
        """Strategies sorted by that realm's p99 (best first)."""
        return sorted(self.strategies, key=lambda name: self.p99_ms(realm, name))

    def orderings_agree(self) -> bool:
        return self.ordering("sim") == self.ordering("live")

    def render(self) -> str:
        lines = [
            render_table(
                self.rows(),
                title=(
                    f"sim vs live -- scenario {self.scenario!r}, "
                    f"seeds {list(self.seeds)}, time scale {self.time_scale:g}x"
                ),
                float_fmt=".3f",
            ),
            "",
            f"p99 ordering (sim):  {' < '.join(self.ordering('sim'))}",
            f"p99 ordering (live): {' < '.join(self.ordering('live'))}",
            (
                "orderings agree: the live run mirrors the simulation"
                if self.orderings_agree()
                else "orderings DIFFER between sim and live"
            ),
        ]
        baseline = "c3" if "c3" in self.strategies else None
        if baseline is not None:
            for name in self.strategies:
                if name == baseline or not name.endswith("-credits"):
                    continue
                live_brb = self.p99_ms("live", name)
                live_c3 = self.p99_ms("live", baseline)
                verdict = "<=" if live_brb <= live_c3 else ">"
                lines.append(
                    f"live p99: {name} {live_brb:.3f} ms {verdict} "
                    f"{baseline} {live_c3:.3f} ms"
                )
        return "\n".join(lines)

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "time_scale": self.time_scale,
            "sim": self.sim.to_dict(),
            "live": self.live.to_dict(),
            "p99_ordering": {
                "sim": self.ordering("sim"),
                "live": self.ordering("live"),
                "agree": self.orderings_agree(),
            },
        }


async def _live_strategy_loopback(
    config: ExperimentConfig,
    seeds: _t.Sequence[int],
    time_scale: float,
    wall_timeout: _t.Optional[float],
) -> _t.List:
    """One strategy's live runs against a fresh in-process loopback server.

    A fresh backend per strategy keeps runs independent (no queue
    residue, no warmed EWMAs crossing strategies), mirroring the
    simulation's fresh-environment-per-run discipline.
    """
    server = LiveServer.from_config(config, time_scale=time_scale, port=0)
    await server.start()
    try:
        return await run_live_seeds(
            config,
            seeds,
            endpoints=[(server.host, server.port)],
            wall_timeout=wall_timeout,
        )
    finally:
        await server.stop()


def run_compare(
    scenario: str,
    strategies: _t.Sequence[str],
    n_tasks: int = 5000,
    seeds: _t.Sequence[int] = (1,),
    time_scale: float = DEFAULT_TIME_SCALE,
    wall_timeout: _t.Optional[float] = None,
    jobs: int = 1,
) -> CompareReport:
    """Run the full differential: sim then live, one scenario, N strategies.

    ``jobs`` (worker processes) applies to the *simulated* half only;
    live cells are inherently serial -- they would contend for the same
    wall-clock backend.
    """
    if not strategies:
        raise ValueError("need at least one strategy to compare")
    spec = get_scenario(scenario)
    configs = {
        name: spec.build_config(strategy=name, n_tasks=n_tasks)
        for name in strategies
    }
    sim = compare_strategies(run_grid([configs], seeds, jobs)[0])
    live = compare_strategies(
        {
            name: asyncio.run(
                _live_strategy_loopback(config, seeds, time_scale, wall_timeout)
            )
            for name, config in configs.items()
        }
    )
    return CompareReport(
        scenario=scenario,
        seeds=tuple(seeds),
        sim=sim,
        live=live,
        time_scale=time_scale,
    )
