"""Structured experiment results.

Every experiment returns an :class:`ExperimentResult` so benches, the CLI,
and EXPERIMENTS.md generation consume one shape: an id tying it to the
paper artifact, tabular and/or series payloads, and free-form notes about
where the reproduction diverges and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..errors import ExperimentError
from .tables import render_series, render_table

__all__ = ["TableResult", "SeriesResult", "ExperimentResult"]


@dataclass(frozen=True)
class TableResult:
    """One table artifact (headers + rows)."""

    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    title: str = ""

    def render(self, *, precision: int = 3) -> str:
        return render_table(self.headers, self.rows,
                            title=self.title or None, precision=precision)

    def column(self, name: str) -> list[object]:
        """Extract one column by header name."""
        try:
            idx = self.headers.index(name)
        except ValueError:
            raise ExperimentError(
                f"no column {name!r}; available: {list(self.headers)}"
            ) from None
        return [row[idx] for row in self.rows]


@dataclass(frozen=True)
class SeriesResult:
    """One figure-style artifact: shared x plus named y series."""

    x_label: str
    x: tuple[object, ...]
    series: dict[str, tuple[float, ...]]
    title: str = ""

    def render(self, *, precision: int = 3) -> str:
        labels = list(self.series)
        return render_series(self.x_label, labels, list(self.x),
                             [list(self.series[k]) for k in labels],
                             title=self.title or None, precision=precision)

    def y(self, name: str) -> tuple[float, ...]:
        try:
            return self.series[name]
        except KeyError:
            raise ExperimentError(
                f"no series {name!r}; available: {list(self.series)}"
            ) from None


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    #: Paper artifact id, e.g. ``"table3"`` or ``"fig6"``.
    experiment_id: str
    description: str
    tables: list[TableResult] = field(default_factory=list)
    series: list[SeriesResult] = field(default_factory=list)
    #: Scalar headline numbers, e.g. response times.
    scalars: dict[str, float] = field(default_factory=dict)
    #: Divergence notes and caveats for EXPERIMENTS.md.
    notes: list[str] = field(default_factory=list)

    def render(self, *, precision: int = 3) -> str:
        """Full plain-text report."""
        parts = [f"== {self.experiment_id}: {self.description} =="]
        for table in self.tables:
            parts.append(table.render(precision=precision))
        for series in self.series:
            parts.append(series.render(precision=precision))
        if self.scalars:
            parts.append("\n".join(
                f"{k} = {v:.{precision}f}" for k, v in self.scalars.items()
            ))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)
