"""The aggregate-masking limitation of Section 5, quantified.

"The use of aggregate performance counter data on each processor may mask
the presence of a high CPU-intensity application among many memory-
intensive applications.  A reduced frequency in such a case will produce a
larger performance loss than predicted."

One CPU-bound job shares a processor with N memory-bound jobs under
round-robin dispatch.  The daemon sees only the blended counters, schedules
the blend's epsilon frequency, and the CPU-bound job eats a loss well above
epsilon while the *aggregate* loss stays near the prediction — the paper's
"individual jobs may [lose]" caveat, measured as a function of N.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, TableResult
from ..core.daemon import DaemonConfig, OverheadModel
from ..errors import ExperimentError
from ..scenario import Scenario
from ..sim.core import CoreConfig
from ..sim.rng import spawn_seeds
from ..units import to_mhz
from ..workloads.job import Job, LoopMode
from ..workloads.synthetic import synthetic_phase

__all__ = ["run", "COMPANION_COUNTS"]

COMPANION_COUNTS = (0, 1, 3, 7)


def _cpu_job(name: str) -> Job:
    return Job(name=name,
               phases=(synthetic_phase(1.0, duration_s=10.0, name="cpu"),),
               loop=LoopMode.LOOP)


def _mem_job(name: str) -> Job:
    return Job(name=name,
               phases=(synthetic_phase(0.1, duration_s=10.0, name="mem"),),
               loop=LoopMode.LOOP)


def _one_mix(companions: int, *, seed: int, fast: bool) -> dict[str, float]:
    duration = 3.0 if fast else 8.0

    def measure(managed: bool, seed_: int) -> tuple[float, float, float]:
        scenario = Scenario(num_cores=1, seed=seed_,
                            core_config=CoreConfig(latency_jitter_sigma=0.0))
        victim = _cpu_job("victim")
        scenario.with_job(0, victim)
        for i in range(companions):
            scenario.with_job(0, _mem_job(f"mem-{i}"))
        if managed:
            scenario.with_governor("fvsst", daemon_config=DaemonConfig(
                counter_noise_sigma=0.0,
                overhead=OverheadModel(enabled=False)))
        result = scenario.run(duration)
        modal = 0.0
        if managed:
            res = result.log.frequency_residency(0, 0)
            modal = max(res, key=res.get)
        total = result.machine.core(0).counters.instructions
        return victim.instructions_retired, total, modal

    base_victim, base_total, _ = measure(False, seed)
    fvsst_victim, fvsst_total, modal = measure(True, seed + 100)
    if base_victim <= 0:
        raise ExperimentError("victim made no progress in the baseline")
    return {
        "victim_loss": 1.0 - fvsst_victim / base_victim,
        "aggregate_loss": 1.0 - fvsst_total / base_total,
        "modal_mhz": to_mhz(modal),
    }


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Sweep the number of memory-bound companions."""
    seeds = spawn_seeds(seed, len(COMPANION_COUNTS))
    rows = []
    results = []
    for n, s in zip(COMPANION_COUNTS, seeds):
        r = _one_mix(n, seed=s, fast=fast)
        results.append(r)
        rows.append((
            n,
            round(r["modal_mhz"], 0),
            round(r["aggregate_loss"], 3),
            round(r["victim_loss"], 3),
        ))
    table = TableResult(
        headers=("mem_companions", "modal_freq_mhz", "aggregate_loss",
                 "victim_loss"),
        rows=tuple(rows),
        title="One CPU-bound job among N memory-bound jobs on one processor",
    )
    return ExperimentResult(
        experiment_id="masking",
        description="aggregate counters mask a CPU-bound job (Section 5)",
        tables=[table],
        scalars={
            "victim_loss_alone": results[0]["victim_loss"],
            "victim_loss_crowded": results[-1]["victim_loss"],
        },
        notes=[
            "Alone, the CPU-bound job is recognised and kept fast.  As "
            "memory-bound companions accumulate, the blended signature "
            "drags the scheduled frequency down and the CPU-bound job's "
            "individual loss grows far beyond epsilon, while the "
            "aggregate loss the predictor reasons about stays modest — "
            "the masking cost the paper accepts for migration-free "
            "scheduling.",
        ],
    )
