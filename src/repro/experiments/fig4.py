"""Figure 4: performance impact of running fvsst.

The synthetic benchmark's reported throughput with fvsst active
(unconstrained power) versus without it, across CPU intensities.  The
impact bundles the daemon's stolen CPU time with the performance cost of
its (mis)predictions; the paper reports at most ~3%, worst for the most
CPU-intensive settings.

The daemon is co-located with the benchmark (Section 9: the prototype runs
at maximum round-robin priority and interferes with the measured
applications), so its stolen time lands on the benchmark's CPU.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, SeriesResult
from ..core.daemon import DaemonConfig
from ..scenario import Scenario
from ..sim.rng import spawn_seeds
from ..workloads.synthetic import SyntheticBenchmark

__all__ = ["run", "INTENSITIES"]

INTENSITIES = (1.00, 0.75, 0.50, 0.25)


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Figure 4."""
    repeats = 1 if fast else 4
    duration = 0.5 if fast else 1.0
    seeds = spawn_seeds(seed, 2 * len(INTENSITIES))
    impacts = []
    for i, intensity in enumerate(INTENSITIES):
        bench = SyntheticBenchmark(
            intensity_a=intensity, intensity_b=intensity,
            duration_a_s=duration, duration_b_s=duration,
        )
        without = Scenario(num_cores=1, seed=seeds[2 * i]).with_job(
            0, bench.job(repeats=repeats, name=f"synthetic-{intensity:.0%}-off"),
        ).run_to_completion()
        with_fvsst = (
            Scenario(num_cores=1, seed=seeds[2 * i + 1])
            .with_job(0, bench.job(repeats=repeats,
                                   name=f"synthetic-{intensity:.0%}-on"))
            .with_governor("fvsst", daemon_config=DaemonConfig(daemon_core=0))
            .run_to_completion()
        )
        impacts.append(1.0 - with_fvsst.throughput / without.throughput)

    fig = SeriesResult(
        x_label="cpu_intensity_pct",
        x=tuple(int(v * 100) for v in INTENSITIES),
        series={
            "throughput_impact_fraction": tuple(impacts),
        },
        title="Figure 4: throughput impact of running fvsst",
    )
    return ExperimentResult(
        experiment_id="fig4",
        description="fvsst overhead on synthetic benchmark throughput",
        series=[fig],
        scalars={"max_impact_fraction": max(impacts)},
        notes=[
            "Impact combines the daemon's stolen CPU time with epsilon-"
            "admissible frequency reductions; the paper reports <= 3%, "
            "largest at high CPU intensity.",
        ],
    )
