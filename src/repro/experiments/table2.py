"""Table 2: predictor accuracy (IPC deviation).

Protocol (Section 8.1): the synthetic benchmark runs on CPU3 of the 4-way
machine at CPU intensities 100/75/50/25%; CPUs 0–2 hot-idle.  fvsst runs
unconstrained with T=100 ms, t=10 ms.  For every scheduling decision the
predicted IPC at the newly applied frequency is compared with the IPC
measured over the following scheduling interval; the table reports the mean
absolute deviation per CPU, plus the CPU3* column that excludes the
benchmark's initialisation and termination windows.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, TableResult
from ..scenario import Scenario
from ..sim.rng import spawn_seeds
from ..workloads.synthetic import SyntheticBenchmark

__all__ = ["run", "INTENSITIES"]

INTENSITIES = (1.00, 0.75, 0.50, 0.25)

#: Scheduling decisions to exclude at each edge for the CPU3* column —
#: covers the init phase (0.25 s) and exit phase (0.1 s) at T = 100 ms.
_EDGE_DECISIONS = 4


def _one_intensity(intensity: float, *, seed: int, fast: bool
                   ) -> tuple[list[float], float]:
    """Deviations for CPU0..CPU3 plus the CPU3* value."""
    repeats = 2 if fast else 6
    bench = SyntheticBenchmark(
        intensity_a=intensity, intensity_b=intensity,
        duration_a_s=0.5 if fast else 1.0,
        duration_b_s=0.5 if fast else 1.0,
    )
    log = (Scenario(num_cores=4, seed=seed)
           .with_job(3, bench.job(repeats=repeats))
           .with_governor("fvsst")
           .run_to_completion(max_duration_s=120.0)).log

    deviations = [log.ipc_deviation(0, cpu) for cpu in range(4)]
    starred = log.ipc_deviation(
        0, 3, skip_head=_EDGE_DECISIONS, skip_tail=_EDGE_DECISIONS
    )
    return deviations, starred


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Table 2."""
    seeds = spawn_seeds(seed, len(INTENSITIES))
    rows = []
    for intensity, s in zip(INTENSITIES, seeds):
        devs, starred = _one_intensity(intensity, seed=s, fast=fast)
        rows.append((
            int(intensity * 100),
            round(devs[0], 3), round(devs[1], 3),
            round(devs[2], 3), round(devs[3], 3),
            round(starred, 3),
        ))
    table = TableResult(
        headers=("CPU intensity", "CPU0", "CPU1", "CPU2", "CPU3", "CPU3*"),
        rows=tuple(rows),
        title="Table 2: predictor error (mean |IPC deviation|)",
    )
    return ExperimentResult(
        experiment_id="table2",
        description="predictor IPC deviation; CPU3* excludes init/exit phases",
        tables=[table],
        notes=[
            "CPU0-2 hot-idle: their workload is stationary, so deviation "
            "reflects counter noise only (paper: ~0.009).",
            "CPU3 runs the benchmark: phase transitions inside scheduling "
            "windows and init/exit phases raise the deviation; excluding "
            "the edges (CPU3*) recovers most of the gap, as in the paper.",
        ],
    )
