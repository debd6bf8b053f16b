"""Figure 5: fvsst response to phase behaviour.

A two-phase synthetic benchmark (alternating CPU-heavy and memory-heavy
phases, each much longer than T = 100 ms) under unconstrained fvsst.  The
figure's three aligned series — measured IPC, scheduled frequency, and
scheduled processor power — show frequency tracking the IPC phase square
wave with one-period lag, and power tracking frequency.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import ExperimentResult, SeriesResult
from ..analysis.timeseries import StepSeries
from ..core.daemon import DaemonConfig
from ..scenario import Scenario
from ..units import to_mhz
from ..workloads.synthetic import SyntheticBenchmark

__all__ = ["run"]


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Figure 5."""
    phase_s = 0.6 if fast else 1.5
    bench = SyntheticBenchmark(
        intensity_a=0.95, intensity_b=0.20,
        duration_a_s=phase_s, duration_b_s=phase_s,
        include_init_exit=False,
    )
    result = (Scenario(num_cores=1, seed=seed)
              .with_job(0, bench.job(loop=True))
              .with_governor("fvsst", daemon_config=DaemonConfig(daemon_core=0))
              .run(4 * phase_s if fast else 6 * phase_s))
    machine = result.machine

    t_ipc, ipc = result.log.ipc_series(0, 0)
    t_f, freq = result.log.frequency_series(0, 0)
    freq_series = StepSeries(t_f, freq)
    power = np.array([
        machine.table.power_at(machine.table.nearest(freq_series.at(t)))
        for t in t_ipc
    ])
    freq_on_grid = np.array([freq_series.at(t) for t in t_ipc])

    fig = SeriesResult(
        x_label="time_s",
        x=tuple(round(float(t), 3) for t in t_ipc),
        series={
            "measured_ipc": tuple(float(v) for v in ipc),
            "frequency_mhz": tuple(to_mhz(float(v)) for v in freq_on_grid),
            "power_w": tuple(float(v) for v in power),
        },
        title="Figure 5: IPC, frequency and power tracking phases",
    )

    # Headline: correlation between IPC level and chosen frequency.
    ipc_hi = ipc > np.median(ipc)
    f_hi = freq_on_grid[ipc_hi].mean()
    f_lo = freq_on_grid[~ipc_hi].mean()
    return ExperimentResult(
        experiment_id="fig5",
        description="fvsst tracks phase changes (T=100 ms, t=10 ms)",
        series=[fig],
        scalars={
            "mean_freq_high_ipc_mhz": to_mhz(f_hi),
            "mean_freq_low_ipc_mhz": to_mhz(f_lo),
        },
        notes=[
            "High-IPC (CPU-bound) intervals are scheduled fast, low-IPC "
            "(memory-bound) intervals slow; power follows frequency — the "
            "trending-together behaviour of the paper's Figure 5.",
        ],
    )
