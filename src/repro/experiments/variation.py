"""Process variation: variation-aware vs homogeneous scheduling.

Four parts from the same design draw different power (corner-lot scales
0.90x–1.25x).  Both schedulers target the same 294 W budget on the same
machine with the same workloads:

* the homogeneous scheduler believes every part draws nominal Table 1
  power — its predicted total under-counts the leaky parts, so the
  *measured* draw exceeds the budget it reports as met;
* the variation-aware scheduler (``power_scales``) plans with per-part
  power, and its measured draw respects the budget.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, TableResult
from ..core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
from ..core.scheduler import FrequencyVoltageScheduler
from ..sim.core import CoreConfig
from ..sim.driver import Simulation
from ..sim.machine import MachineConfig, SMPMachine
from ..sim.rng import spawn_seeds
from ..workloads.profiles import ALL_PROFILES

__all__ = ["run", "POWER_SCALES", "BUDGET_W"]

#: Corner-lot power multipliers of the four parts.
POWER_SCALES = (1.0, 1.25, 0.90, 1.15)
BUDGET_W = 294.0


def _run_policy(policy: str, *, seed: int, fast: bool) -> dict[str, float]:
    duration = 3.0 if fast else 8.0
    machine = SMPMachine(MachineConfig(
        num_cores=4,
        core_config=CoreConfig(latency_jitter_sigma=0.0),
    ), seed=seed)
    for i, (app, scale) in enumerate(zip(("gzip", "gap", "mcf", "health"),
                                         POWER_SCALES)):
        machine.core(i).power_scale = scale
        machine.assign(i, ALL_PROFILES[app].job(loop=True))

    scales = ({(0, i): s for i, s in enumerate(POWER_SCALES)}
              if policy == "aware" else None)
    scheduler = FrequencyVoltageScheduler(machine.table, power_scales=scales)

    daemon = FvsstDaemon(machine, DaemonConfig(
        power_limit_w=BUDGET_W, counter_noise_sigma=0.0,
        measured_feedback=(policy == "feedback"),
        overhead=OverheadModel(enabled=False)),
        scheduler=scheduler, seed=seed + 1)
    sim = Simulation(machine)
    daemon.attach(sim)

    over = []
    measured = []
    sim.every(0.05, lambda t: (
        measured.append(machine.cpu_power_w()),
        over.append(machine.cpu_power_w() > BUDGET_W + 1e-9),
    ))
    sim.run_for(duration)

    # Skip the startup window before the first scheduling pass.
    skip = 3
    instructions = sum(c.counters.instructions for c in machine.cores)
    return {
        "predicted_w": daemon.last_schedule.total_power_w,
        "measured_mean_w": sum(measured[skip:]) / len(measured[skip:]),
        "measured_max_w": max(measured[skip:]),
        "violation_fraction": sum(over[skip:]) / len(over[skip:]),
        "instructions": instructions,
    }


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Compare variation-aware and homogeneous scheduling."""
    seeds = spawn_seeds(seed, 3)
    homogeneous = _run_policy("homogeneous", seed=seeds[0], fast=fast)
    aware = _run_policy("aware", seed=seeds[1], fast=fast)
    feedback = _run_policy("feedback", seed=seeds[2], fast=fast)

    def row(name: str, r: dict[str, float]) -> tuple:
        return (
            name, round(r["predicted_w"], 0),
            round(r["measured_max_w"], 1),
            round(r["violation_fraction"], 3),
            round(r["instructions"] / homogeneous["instructions"], 3),
        )

    table = TableResult(
        headers=("scheduler", "predicted_w", "measured_max_w",
                 "violation_fraction", "norm_throughput"),
        rows=(
            row("homogeneous", homogeneous),
            row("variation-aware", aware),
            row("homogeneous+feedback", feedback),
        ),
        title=f"Corner-lot parts {POWER_SCALES} under a {BUDGET_W:.0f} W "
              "budget",
    )
    return ExperimentResult(
        experiment_id="variation",
        description="process variation: per-part power scales",
        tables=[table],
        scalars={
            "homogeneous_violation_fraction":
                homogeneous["violation_fraction"],
            "aware_violation_fraction": aware["violation_fraction"],
            "feedback_violation_fraction": feedback["violation_fraction"],
            "homogeneous_max_w": homogeneous["measured_max_w"],
            "aware_max_w": aware["measured_max_w"],
            "feedback_max_w": feedback["measured_max_w"],
        },
        notes=[
            "The homogeneous scheduler's believed total under-counts the "
            "leaky parts, so its measured draw breaches the budget; the "
            "variation-aware scheduler spends slightly more performance "
            "to stay genuinely inside it.",
            "The Section 5 measured-power feedback loop fixes the same "
            "breach without knowing the per-part tables: it tightens its "
            "internal planning limit until the measured draw complies "
            "(a short transient of violations while it converges).",
        ],
    )
