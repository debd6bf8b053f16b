"""Plain-text charts for terminal output.

Dependency-free renderers used by the CLI's ``--chart`` flag and the
examples: a multi-series line chart on a character grid, horizontal bars,
and compact sparklines.  They intentionally trade beauty for determinism —
output is stable across runs and diffs cleanly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ExperimentError

__all__ = ["line_chart", "bar_chart", "sparkline"]

_SPARK_LEVELS = " .:-=+*#%@"
_SERIES_MARKS = "ox+*#@"


def _bounds(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    return lo, hi


def line_chart(x: Sequence[float], series: dict[str, Sequence[float]], *,
               width: int = 64, height: int = 16,
               title: str | None = None) -> str:
    """Render one or more y-series against shared x on a character grid."""
    if not series:
        raise ExperimentError("no series to chart")
    if width < 8 or height < 4:
        raise ExperimentError("chart too small")
    xv = np.asarray(x, dtype=float)
    if xv.size < 2:
        raise ExperimentError("need at least two points")
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    for k, v in ys.items():
        if v.shape != xv.shape:
            raise ExperimentError(f"series {k!r} length mismatch")

    all_y = np.concatenate(list(ys.values()))
    y_lo, y_hi = _bounds(all_y)
    x_lo, x_hi = _bounds(xv)

    grid = [[" "] * width for _ in range(height)]
    for si, (name, yv) in enumerate(ys.items()):
        mark = _SERIES_MARKS[si % len(_SERIES_MARKS)]
        for xi, yi in zip(xv, yv):
            col = int(round((xi - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(round((yi - y_lo) / (y_hi - y_lo) * (height - 1)))
            grid[height - 1 - row][col] = mark

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:>10.3g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{y_lo:>10.3g} +" + "-" * width + "+")
    lines.append(" " * 12 + f"{x_lo:<.3g}" + " " * max(1, width - 12)
                 + f"{x_hi:>.3g}")
    legend = "  ".join(
        f"{_SERIES_MARKS[i % len(_SERIES_MARKS)]}={name}"
        for i, name in enumerate(ys)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def bar_chart(labels: Sequence[str], values: Sequence[float], *,
              width: int = 48, title: str | None = None,
              unit: str = "") -> str:
    """Horizontal bars, scaled to the largest value."""
    if len(labels) != len(values):
        raise ExperimentError("one label per value required")
    if not labels:
        raise ExperimentError("nothing to chart")
    vals = np.asarray(values, dtype=float)
    if np.any(vals < 0):
        raise ExperimentError("bar_chart takes non-negative values")
    vmax = float(vals.max()) or 1.0
    label_w = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, vals):
        filled = int(round(width * value / vmax))
        lines.append(
            f"{str(label):>{label_w}} |{'#' * filled}{' ' * (width - filled)}"
            f"| {value:.3g}{unit}"
        )
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line intensity strip of a series."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ExperimentError("nothing to chart")
    lo, hi = _bounds(vals)
    span = hi - lo
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)
