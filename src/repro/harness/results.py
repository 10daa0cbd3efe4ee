"""Result aggregation across strategies and seeds.

The paper repeats each experiment 6 times with different seeds and plots
per-percentile latencies "averaged across experiments".  This module owns
that aggregation plus the derived quantities the paper's prose reports
(BRB-vs-C3 speedups, credits-vs-model gap).
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing as _t
from pathlib import Path

from ..metrics.summary import (
    LatencySummary,
    PAPER_PERCENTILES,
    mean_of_summaries,
)
from .runner import RunResult


@dataclasses.dataclass
class StrategyResult:
    """All seeds of one strategy, plus the seed-averaged summary."""

    strategy: str
    runs: _t.List[RunResult]

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError(f"no runs for strategy {self.strategy!r}")

    def per_seed_summaries(self) -> _t.List[LatencySummary]:
        return [run.summary(PAPER_PERCENTILES) for run in self.runs]

    def mean_summary(self) -> LatencySummary:
        return mean_of_summaries(self.per_seed_summaries())

    def percentile_spread(self, p: float) -> _t.Tuple[float, float]:
        """(min, max) of a percentile across seeds -- seed stability check."""
        values = [s.percentile(p) for s in self.per_seed_summaries()]
        return min(values), max(values)


@dataclasses.dataclass
class ComparisonResult:
    """A set of strategies over the same workload/seed grid."""

    strategies: _t.Dict[str, StrategyResult]
    seeds: _t.Tuple[int, ...]

    def summary_of(self, strategy: str) -> LatencySummary:
        return self.strategies[strategy].mean_summary()

    def speedup(
        self, slow: str, fast: str
    ) -> _t.Dict[float, float]:
        """Per-percentile latency ratio slow/fast (>1 means `fast` wins)."""
        return self.summary_of(slow).ratio_to(self.summary_of(fast))

    def gap_to_ideal(
        self, realized: str, ideal: str
    ) -> _t.Dict[float, float]:
        """Per-percentile (realized - ideal) / ideal; the paper's "within
        38% of an ideal model" metric."""
        real = self.summary_of(realized)
        idl = self.summary_of(ideal)
        return {
            p: (real.percentile(p) - idl.percentile(p)) / idl.percentile(p)
            for p in real.percentiles
            if p in idl.percentiles
        }

    def to_dict(self) -> _t.Dict[str, _t.Any]:
        """JSON-friendly structure (docs/results.md provenance blobs)."""
        out: _t.Dict[str, _t.Any] = {"seeds": list(self.seeds), "strategies": {}}
        for name, sres in self.strategies.items():
            mean = sres.mean_summary()
            out["strategies"][name] = {
                "count": mean.count,
                "mean_s": mean.mean,
                "percentiles_ms": {
                    f"p{p:g}": v * 1e3 for p, v in sorted(mean.percentiles.items())
                },
                "per_seed_p99_ms": [
                    s.percentile(99.0) * 1e3
                    for s in sres.per_seed_summaries()
                    if 99.0 in s.percentiles
                ],
            }
        return out

    def canonical_json(self) -> str:
        """Key-sorted compact JSON of :meth:`to_dict`.

        Two comparisons are *equivalent* exactly when these strings are
        byte-identical; the one-worker vs N-worker differential tests
        compare through this form.
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    def save_json(self, path: _t.Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")


def validate_summary_dict(data: _t.Mapping[str, _t.Any]) -> None:
    """Validate the shared summary-JSON schema; raises ``ValueError``.

    This is the contract between realms: a simulated
    :meth:`ComparisonResult.to_dict` and a live
    :func:`repro.loadgen.live_summary` must both satisfy it, so analysis
    tooling can consume either without knowing which produced it.  A
    top-level ``meta`` block (live provenance: scenario, time scale, wall
    duration) is permitted; anything else unexpected is an error.
    """

    def fail(message: str) -> "_t.NoReturn":
        raise ValueError(f"bad summary: {message}")

    if not isinstance(data, _t.Mapping):
        fail(f"expected an object, got {type(data).__name__}")
    unexpected = set(data) - {"seeds", "strategies", "meta"}
    if unexpected:
        fail(f"unexpected top-level keys {sorted(unexpected)}")
    seeds = data.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        fail(f"'seeds' must be a non-empty list of ints, got {seeds!r}")
    strategies = data.get("strategies")
    if not isinstance(strategies, _t.Mapping) or not strategies:
        fail(f"'strategies' must be a non-empty object, got {strategies!r}")
    if "meta" in data and not isinstance(data["meta"], _t.Mapping):
        fail(f"'meta' must be an object, got {data['meta']!r}")
    for name, entry in strategies.items():
        if not isinstance(entry, _t.Mapping):
            fail(f"strategy {name!r} entry is not an object")
        missing = {"count", "mean_s", "percentiles_ms", "per_seed_p99_ms"} - set(entry)
        if missing:
            fail(f"strategy {name!r} is missing {sorted(missing)}")
        if not isinstance(entry["count"], int) or entry["count"] <= 0:
            fail(f"strategy {name!r} count must be a positive int")
        if not isinstance(entry["mean_s"], (int, float)) or not math.isfinite(
            entry["mean_s"]
        ):
            fail(f"strategy {name!r} mean_s must be finite")
        percentiles = entry["percentiles_ms"]
        if not isinstance(percentiles, _t.Mapping) or not percentiles:
            fail(f"strategy {name!r} percentiles_ms must be a non-empty object")
        for label, value in percentiles.items():
            if not (isinstance(label, str) and label.startswith("p")):
                fail(f"strategy {name!r} has bad percentile label {label!r}")
            try:
                float(label[1:])
            except ValueError:
                fail(f"strategy {name!r} has bad percentile label {label!r}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                fail(f"strategy {name!r} {label} must be finite, got {value!r}")
        per_seed = entry["per_seed_p99_ms"]
        if not isinstance(per_seed, list) or len(per_seed) != len(seeds):
            fail(
                f"strategy {name!r} per_seed_p99_ms must list one value per "
                f"seed ({len(seeds)}), got {per_seed!r}"
            )
        if not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in per_seed
        ):
            fail(f"strategy {name!r} per_seed_p99_ms must be finite numbers")


def compare_strategies(
    results: _t.Mapping[str, _t.Sequence[RunResult]],
) -> ComparisonResult:
    """Bundle per-strategy run lists into a :class:`ComparisonResult`."""
    if not results:
        raise ValueError("no results to compare")
    seeds: _t.Optional[_t.Tuple[int, ...]] = None
    strategies: _t.Dict[str, StrategyResult] = {}
    for name, runs in results.items():
        run_list = list(runs)
        run_seeds = tuple(r.seed for r in run_list)
        if seeds is None:
            seeds = run_seeds
        elif run_seeds != seeds:
            raise ValueError(
                f"strategy {name!r} ran seeds {run_seeds}, expected {seeds} "
                "(paired comparison requires a common seed grid)"
            )
        strategies[name] = StrategyResult(strategy=name, runs=run_list)
    assert seeds is not None
    return ComparisonResult(strategies=strategies, seeds=seeds)
