"""ASCII charts: grouped bars (Figure 2's shape) and CDF sketches.

These render into the reports ``repro record`` prints and writes to
``results/``, so the reproduced figures are visible without any
plotting stack.
"""

from __future__ import annotations

import math
import typing as _t


def grouped_bar_chart(
    groups: _t.Mapping[str, _t.Mapping[str, float]],
    width: int = 46,
    unit: str = "ms",
    title: _t.Optional[str] = None,
) -> str:
    """Figure-2 style: one block per percentile group, bars per strategy."""
    if not groups:
        raise ValueError("no groups to plot")
    peak = max(v for series in groups.values() for v in series.values())
    if peak <= 0:
        raise ValueError("values must contain a positive maximum")
    label_w = max(len(name) for series in groups.values() for name in series)
    lines: _t.List[str] = []
    if title:
        lines.append(title)
    for group, series in groups.items():
        lines.append(f"-- {group} --")
        for name, value in series.items():
            bar = "#" * max(1, int(round(width * value / peak)))
            lines.append(f"  {name.ljust(label_w)} | {bar} {value:.3f}{unit}")
    return "\n".join(lines)


def cdf_sketch(
    points: _t.Sequence[_t.Tuple[float, float]],
    rows: int = 12,
    width: int = 60,
    log_x: bool = True,
    title: _t.Optional[str] = None,
) -> str:
    """Rough CDF plot of (value, cumulative fraction) points."""
    if len(points) < 2:
        raise ValueError("need at least two CDF points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if log_x:
        if min(xs) <= 0:
            raise ValueError("log_x requires positive values")
        xs = [math.log10(x) for x in xs]
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0
    grid = [[" "] * width for _ in range(rows)]
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - x_lo) / span * (width - 1)))
        row = min(rows - 1, int((1.0 - y) * (rows - 1)))
        grid[row][col] = "*"
    lines: _t.List[str] = []
    if title:
        lines.append(title)
    for i, row_cells in enumerate(grid):
        frac = 1.0 - i / (rows - 1)
        lines.append(f"{frac:4.2f} |" + "".join(row_cells))
    axis = "-" * width
    lines.append("     +" + axis)
    if log_x:
        lines.append(
            f"      10^{x_lo:.1f}".ljust(width // 2 + 6)
            + f"10^{x_hi:.1f}".rjust(width // 2)
        )
    return "\n".join(lines)
