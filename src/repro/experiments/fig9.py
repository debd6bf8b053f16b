"""Figures 9 and 10: actual vs desired frequency for gap at 750 MHz.

gap runs under fvsst with a 75 W budget (750 MHz cap).  The log's step-1
epsilon-constrained frequency is the *desired* series; the applied
frequency is the *actual* series.  Desired exceeds actual exactly when the
cap binds; Figure 10 is a magnified time slice of the same data.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import ExperimentResult, SeriesResult
from ..errors import ExperimentError
from ..scenario import Scenario
from ..units import to_mhz
from ..sim.rng import spawn_seeds
from ..workloads.profiles import gap_profile

__all__ = ["run", "run_zoom", "CAP_W"]

CAP_W = 75.0


def _series(seed: int, fast: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    seeds = spawn_seeds(seed, 1)
    log = (Scenario(num_cores=1, seed=seeds[0])
           .with_job(0, gap_profile().job(body_repeats=1 if fast else 3))
           .with_governor("fvsst", power_limit_w=CAP_W)
           .run_to_completion()).log
    t, actual = log.frequency_series(0, 0)
    _t2, desired = log.frequency_series(0, 0, desired=True)
    return t, actual, desired


def _result(t, actual, desired, *, experiment_id: str, title: str,
            description: str) -> ExperimentResult:
    fig = SeriesResult(
        x_label="time_s",
        x=tuple(round(float(v), 3) for v in t),
        series={
            "actual_mhz": tuple(to_mhz(float(v)) for v in actual),
            "desired_mhz": tuple(to_mhz(float(v)) for v in desired),
        },
        title=title,
    )
    capped = desired > actual + 1e-6
    return ExperimentResult(
        experiment_id=experiment_id,
        description=description,
        series=[fig],
        scalars={
            "fraction_cap_binding": float(np.mean(capped)) if len(t) else 0.0,
            "max_actual_mhz": float(to_mhz(actual.max())) if len(t) else 0.0,
        },
        notes=[
            "Actual = min(desired, cap-admissible): gap's desired "
            "frequency wanders above 750 MHz but the applied frequency "
            "never exceeds it — the paper's Figures 9/10.",
        ],
    )


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Figure 9 (full trace)."""
    t, actual, desired = _series(seed, fast)
    return _result(t, actual, desired, experiment_id="fig9",
                   title="Figure 9: actual vs desired frequency, gap @ 75 W",
                   description="gap desired/actual frequency at 750 MHz cap")


def run_zoom(seed: int = 2005, fast: bool = False,
             window: tuple[float, float] | None = None) -> ExperimentResult:
    """Regenerate Figure 10 (a magnified slice of the Figure 9 data)."""
    t, actual, desired = _series(seed, fast)
    if window is None:
        t0 = t[len(t) // 3]
        window = (float(t0), float(t0) + (1.0 if fast else 2.0))
    mask = (t >= window[0]) & (t <= window[1])
    if not mask.any():
        raise ExperimentError(f"zoom window {window} contains no samples")
    return _result(t[mask], actual[mask], desired[mask],
                   experiment_id="fig10",
                   title=f"Figure 10: magnified slice {window}",
                   description="magnified desired/actual slice for gap")
