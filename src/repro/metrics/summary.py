"""Latency summaries: the percentile rows every experiment reports.

A :class:`LatencySummary` is the common currency between the simulator, the
harness and the benchmark reports: a named set of percentiles plus count and
mean, extractable from any recorder that implements ``quantile``.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

#: The percentiles Figure 2 of the paper reports.
PAPER_PERCENTILES: _t.Tuple[float, ...] = (50.0, 95.0, 99.0)

#: A richer default set used by the ablation sweeps.
DEFAULT_PERCENTILES: _t.Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)


class _QuantileSource(_t.Protocol):  # pragma: no cover - typing helper
    count: int

    def quantile(self, q: float) -> float: ...

    @property
    def mean(self) -> float: ...


@dataclasses.dataclass(frozen=True)
class LatencySummary:
    """Immutable percentile summary of one latency distribution."""

    name: str
    count: int
    mean: float
    percentiles: _t.Mapping[float, float]

    @classmethod
    def from_recorder(
        cls,
        name: str,
        recorder: "_QuantileSource",
        percentiles: _t.Sequence[float] = DEFAULT_PERCENTILES,
    ) -> "LatencySummary":
        """Extract a summary from any recorder with ``quantile``/``mean``."""
        if recorder.count == 0:
            raise ValueError(f"recorder for {name!r} is empty")
        values = {float(p): recorder.quantile(p / 100.0) for p in percentiles}
        return cls(name=name, count=recorder.count, mean=recorder.mean, percentiles=values)

    def percentile(self, p: float) -> float:
        """Look up a stored percentile (KeyError if not captured)."""
        return self.percentiles[float(p)]

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def scaled(self, factor: float) -> "LatencySummary":
        """Return a copy with all values multiplied by ``factor``.

        Used to convert seconds to milliseconds for paper-style tables.
        """
        return LatencySummary(
            name=self.name,
            count=self.count,
            mean=self.mean * factor,
            percentiles={p: v * factor for p, v in self.percentiles.items()},
        )

    def ratio_to(self, other: "LatencySummary") -> _t.Dict[float, float]:
        """Per-percentile ratio self/other (e.g. C3 over BRB = speedup).

        A zero percentile in ``other`` (possible with empty or degenerate
        windows, e.g. from the streamed metrics bus) yields ``math.inf``
        -- or ``math.nan`` when the numerator is zero too -- instead of
        raising ``ZeroDivisionError``.
        """
        shared = sorted(set(self.percentiles) & set(other.percentiles))
        if not shared:
            raise ValueError("summaries share no percentiles")
        out: _t.Dict[float, float] = {}
        for p in shared:
            numerator = self.percentiles[p]
            denominator = other.percentiles[p]
            if denominator == 0.0:
                out[p] = math.nan if numerator == 0.0 else math.inf
            else:
                out[p] = numerator / denominator
        return out

    def __str__(self) -> str:
        parts = ", ".join(
            f"p{p:g}={v * 1e3:.3f}ms" for p, v in sorted(self.percentiles.items())
        )
        return f"{self.name}: n={self.count}, mean={self.mean * 1e3:.3f}ms, {parts}"


def mean_of_summaries(summaries: _t.Sequence[LatencySummary]) -> LatencySummary:
    """Average several same-shaped summaries (the paper averages 6 seeds)."""
    if not summaries:
        raise ValueError("no summaries to average")
    name = summaries[0].name
    keys = set(summaries[0].percentiles)
    for s in summaries[1:]:
        if set(s.percentiles) != keys:
            raise ValueError("summaries have mismatched percentile sets")
    n = len(summaries)
    return LatencySummary(
        name=name,
        count=sum(s.count for s in summaries),
        mean=sum(s.mean for s in summaries) / n,
        percentiles={p: sum(s.percentiles[p] for s in summaries) / n for p in keys},
    )
