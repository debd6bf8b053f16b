"""Table 3: performance and energy of gzip/gap/mcf/health under power caps.

Protocol (Section 8.4): each application runs to completion on a single
processor under fvsst at processor budgets of 140 W (unconstrained), 75 W
and 35 W.  Performance is normalised against the 140 W fvsst run; energy is
normalised against a non-fvsst system (all cores pinned at 1000 MHz) running
the same application.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, TableResult
from ..scenario import Scenario
from ..sim.rng import spawn_seeds
from ..workloads.profiles import ALL_PROFILES

__all__ = ["run", "CAPS_W", "APPS"]

CAPS_W = (140.0, 75.0, 35.0)
APPS = ("gzip", "gap", "mcf", "health")


def _runs_for_app(app: str, *, seed: int, fast: bool) -> dict[str, float]:
    """Throughput and energy for one application at each cap + baseline."""
    profile = ALL_PROFILES[app]
    repeats = 1 if fast else 3
    seeds = spawn_seeds(seed, len(CAPS_W) + 1)
    out: dict[str, float] = {}

    baseline = Scenario(num_cores=1, seed=seeds[0]).with_job(
        0, profile.job(body_repeats=repeats)).run_to_completion()
    out["baseline_energy_j"] = baseline.core_energy_j(0)
    out["baseline_throughput"] = baseline.throughput

    for cap, s in zip(CAPS_W, seeds[1:]):
        run = (Scenario(num_cores=1, seed=s)
               .with_job(0, profile.job(body_repeats=repeats))
               .with_governor("fvsst", power_limit_w=cap)
               .run_to_completion())
        out[f"throughput@{int(cap)}"] = run.throughput
        out[f"energy@{int(cap)}"] = run.core_energy_j(0)
    return out


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Table 3."""
    seeds = spawn_seeds(seed, len(APPS))
    measured = {
        app: _runs_for_app(app, seed=s, fast=fast)
        for app, s in zip(APPS, seeds)
    }

    rows = []
    for metric in ("Perf", "Energy"):
        for cap in CAPS_W:
            row: list[object] = [f"{metric} @ {int(cap)}W"]
            for app in APPS:
                m = measured[app]
                if metric == "Perf":
                    value = (m[f"throughput@{int(cap)}"]
                             / m["throughput@140"])
                else:
                    value = m[f"energy@{int(cap)}"] / m["baseline_energy_j"]
                row.append(round(value, 2))
            rows.append(tuple(row))

    table = TableResult(
        headers=("", *APPS),
        rows=tuple(rows),
        title="Table 3: performance and energy under power constraints",
    )
    return ExperimentResult(
        experiment_id="table3",
        description="per-application performance/energy at 140/75/35 W",
        tables=[table],
        notes=[
            "Performance normalised to the 140 W fvsst run (paper "
            "convention); energy normalised to a non-fvsst system pinned "
            "at 1000 MHz.",
            "Expected divergence: the memory-bound 35 W performance losses "
            "are smaller here (~0.93) than the paper's measurements "
            "(0.81/0.72) because the constant-latency linear CPI model "
            "bounds sub-saturation losses; see EXPERIMENTS.md.",
        ],
    )
