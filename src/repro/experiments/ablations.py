"""Ablations over fvsst's design choices (DESIGN.md §5, extensions).

Four studies:

* ``run_epsilon_sweep`` — the performance/energy trade-off as the tolerated
  loss bound epsilon varies (Section 5 requires epsilon above the ladder's
  minimum performance step; this shows why).
* ``run_period_sweep`` — scheduling period T vs tracking quality and
  overhead (the Section 5 stabilisation/amortisation argument).
* ``run_predictor_variants`` — constant-latency observation-calibrated
  predictor vs the assumed-alpha literal equation vs the footnote-1
  latency-bounds interval width.
* ``run_policy_comparison`` — fvsst vs uniform scaling vs node power-down
  vs utilization stepping at one fixed budget (the alternatives from the
  abstract).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..analysis.report import ExperimentResult, TableResult
from ..core.daemon import DaemonConfig
from ..exec.pool import parallel_map
from ..model.bounds import LatencyBounds, predict_ipc_bounds
from ..model.ipc import MemoryCounts
from ..model.latency import POWER4_LATENCIES
from ..scenario import Scenario, make_governor
from ..sim.rng import spawn_seeds
from ..units import ghz
from ..workloads.profiles import mcf_profile
from ..workloads.synthetic import SyntheticBenchmark, synthetic_phase

__all__ = [
    "run_epsilon_sweep",
    "run_period_sweep",
    "run_predictor_variants",
    "run_policy_comparison",
    "run_daemon_design",
]


def _epsilon_point(task: tuple[float | None, int, int]) -> dict[str, float]:
    """One epsilon sweep point (picklable; ``eps=None`` is the baseline)."""
    eps, s, reps = task
    scenario = Scenario(num_cores=1, seed=s).with_job(
        0, mcf_profile().job(body_repeats=reps))
    if eps is not None:
        scenario.with_governor("fvsst",
                               daemon_config=DaemonConfig(epsilon=eps))
    run_ = scenario.run_to_completion()
    return {"throughput": run_.throughput, "energy": run_.core_energy_j(0)}


def run_epsilon_sweep(seed: int = 2005, fast: bool = False,
                      epsilons: tuple[float, ...] = (0.01, 0.02, 0.04,
                                                     0.08, 0.15)
                      ) -> ExperimentResult:
    """Performance vs energy across epsilon values (mcf, unconstrained)."""
    seeds = spawn_seeds(seed, len(epsilons) + 1)
    reps = 1 if fast else 2
    baseline, *points = parallel_map(_epsilon_point, [
        (None, seeds[0], reps),
        *((eps, s, reps) for eps, s in zip(epsilons, seeds[1:])),
    ])
    rows = []
    for eps, point in zip(epsilons, points):
        rows.append((
            eps,
            round(point["throughput"] / baseline["throughput"], 3),
            round(point["energy"] / baseline["energy"], 3),
        ))
    table = TableResult(
        headers=("epsilon", "norm_performance", "norm_energy"),
        rows=tuple(rows),
        title="Epsilon sweep (mcf, unconstrained budget)",
    )
    return ExperimentResult(
        experiment_id="ablation_epsilon",
        description="tolerated-loss bound vs delivered performance and energy",
        tables=[table],
        notes=[
            "Larger epsilon admits lower frequencies: energy falls, "
            "performance degrades toward (1 - epsilon).  Below the "
            "ladder's minimum step the bound cannot bite (Section 5).",
        ],
    )


def run_period_sweep(seed: int = 2005, fast: bool = False,
                     multipliers: tuple[int, ...] = (1, 5, 10, 25, 50)
                     ) -> ExperimentResult:
    """Scheduling period T = n*t vs phase tracking and overhead."""
    seeds = spawn_seeds(seed, len(multipliers) + 1)
    phase_s = 0.4 if fast else 1.0
    reps = 2 if fast else 4
    bench = SyntheticBenchmark(intensity_a=1.0, intensity_b=0.2,
                               duration_a_s=phase_s, duration_b_s=phase_s,
                               include_init_exit=False)
    baseline = Scenario(num_cores=1, seed=seeds[0]).with_job(
        0, bench.job(repeats=reps)).run_to_completion()
    rows = []
    for n, s in zip(multipliers, seeds[1:]):
        run_ = (Scenario(num_cores=1, seed=s)
                .with_job(0, bench.job(repeats=reps))
                .with_governor("fvsst", daemon_config=DaemonConfig(
                    schedule_every=n, daemon_core=0))
                .run_to_completion())
        rows.append((
            n,
            round(n * 0.010, 3),
            round(run_.throughput / baseline.throughput, 3),
            round(run_.core_energy_j(0) / baseline.core_energy_j(0), 3),
            round(run_.machine.core(0).overhead_executed_s
                  / run_.elapsed_s, 4),
        ))
    table = TableResult(
        headers=("n", "T_s", "norm_performance", "norm_energy",
                 "overhead_fraction"),
        rows=tuple(rows),
        title="Scheduling period sweep (two-phase synthetic)",
    )
    return ExperimentResult(
        experiment_id="ablation_period",
        description="T = n*t vs tracking quality and daemon overhead",
        tables=[table],
        notes=[
            "Small T tracks phases tightly but pays more overhead and "
            "jitter; very large T misses phase boundaries (energy rises "
            "back toward the static value) — the Section 5 trade-off.",
        ],
    )


def run_predictor_variants(seed: int | None = None, fast: bool = False
                           ) -> ExperimentResult:
    """Accuracy of the three predictor formulations on known phases.

    Evaluated analytically: for a grid of synthetic intensities, generate
    the exact counters of one interval at 1 GHz, predict IPC at 650 MHz
    with each variant, and compare with the ground truth.
    """
    intensities = (1.0, 0.9, 0.75, 0.5, 0.25, 0.1, 0.0)
    target = ghz(0.65)
    observe = ghz(1.0)
    bounds = LatencyBounds.from_nominal(POWER4_LATENCIES, spread=0.25)
    rows = []
    for intensity in intensities:
        phase = synthetic_phase(intensity, instructions=1e9)
        truth = phase.true_ipc(POWER4_LATENCIES, target)
        sig_true = phase.true_signature(POWER4_LATENCIES)
        counts = phase.counts_for(phase.instructions)

        # Observation-calibrated: recovers c0 exactly under stationarity.
        cpi_obs = 1.0 / phase.true_ipc(POWER4_LATENCIES, observe)
        m = counts.memory_time_s(POWER4_LATENCIES) / counts.instructions
        ipc_counter = 1.0 / ((cpi_obs - m * observe) + m * target)

        # Assumed-alpha literal equation: misses the unmodeled stalls.
        alpha_assumed = phase.alpha
        core_alpha = 1.0 / alpha_assumed + (counts.l1_stall_cycles
                                            / counts.instructions)
        ipc_alpha = 1.0 / (core_alpha + m * target)

        mem_counts = MemoryCounts(
            instructions=counts.instructions, n_l2=counts.n_l2,
            n_l3=counts.n_l3, n_mem=counts.n_mem,
            l1_stall_cycles=counts.l1_stall_cycles,
        )
        interval = predict_ipc_bounds(mem_counts, bounds, target,
                                      alpha=alpha_assumed)
        # The footnote-1 interval brackets *latency* uncertainty: any
        # constant latency profile inside the spread must project inside
        # the interval.  (It does NOT bracket the alpha/unmodeled-stall
        # bias — that is the note below.)
        covers = all(
            interval.contains(
                1.0 / (core_alpha
                       + (mem_counts.memory_time_s(
                           POWER4_LATENCIES.scaled(scale))
                          / mem_counts.instructions) * target)
            )
            for scale in (0.8, 1.0, 1.2)
        )
        rows.append((
            int(intensity * 100),
            round(truth, 4),
            round(abs(ipc_counter - truth), 4),
            round(abs(ipc_alpha - truth), 4),
            round(interval.width, 4),
            covers,
        ))
    table = TableResult(
        headers=("cpu_intensity", "true_ipc@650", "err_counter",
                 "err_alpha", "bounds_width", "covers_latency_variation"),
        rows=tuple(rows),
        title="Predictor variants at 650 MHz from a 1 GHz observation",
    )
    return ExperimentResult(
        experiment_id="ablation_predictor",
        description="observation-calibrated vs assumed-alpha vs bounds",
        tables=[table],
        notes=[
            "The observation-calibrated predictor is exact under "
            "stationarity; the literal assumed-alpha equation carries the "
            "unmodeled-stall bias the paper names in Section 8.1.",
            "The footnote-1 bounds bracket constant-latency variation "
            "exactly, but do not cover the alpha bias — a workload whose "
            "true ILP differs from the assumed alpha can fall outside.",
        ],
    )


def _build_policy_machine(seed_: int):
    from ..sim.machine import MachineConfig, SMPMachine
    from ..workloads.profiles import ALL_PROFILES

    machine = SMPMachine(MachineConfig(num_cores=4), seed=seed_)
    for i, app in enumerate(("gzip", "gap", "mcf", "health")):
        machine.assign(i, ALL_PROFILES[app].job(loop=True))
    return machine


def _policy_point(task: tuple[str, int, bool, float]) -> dict[str, float]:
    """One governor x budget sweep point (picklable for the pool)."""
    from ..sim.driver import Simulation

    policy, seed_, fast, budget_w = task
    duration = 4.0 if fast else 10.0
    machine = _build_policy_machine(seed_)
    sim = Simulation(machine)
    if policy == "none":
        make_governor("none", machine, power_limit_w=None).attach(sim)
        sim.run_for(duration)
        return {"instructions": sum(c.counters.instructions
                                    for c in machine.cores)}
    make_governor(policy, machine, power_limit_w=budget_w,
                  seed=seed_ + 1).attach(sim)
    powers = []
    sim.every(0.05, lambda t, m=machine, p=powers: p.append(m.cpu_power_w()))
    sim.run_for(duration)
    return {
        "instructions": sum(c.counters.instructions for c in machine.cores),
        "mean_w": float(np.mean(powers)),
        "max_w": float(np.max(powers)),
    }


def run_policy_comparison(seed: int = 2005, fast: bool = False,
                          budget_w: float = 294.0) -> ExperimentResult:
    """fvsst vs the abstract's alternatives at one fixed 4-core budget.

    All four cores run real work (the four application models), so the
    budget genuinely binds.  Scored on aggregate throughput and worst-case
    power.  Each (governor, budget) point is an independent simulation
    with its own pre-spawned seed, so the five runs fan across worker
    processes under ``--jobs``.
    """
    policies = ("fvsst", "uniform", "powerdown", "utilization")
    seeds = spawn_seeds(seed, len(policies) + 1)

    reference, *points = parallel_map(_policy_point, [
        ("none", seeds[0], fast, budget_w),
        *((p, s, fast, budget_w) for p, s in zip(policies, seeds[1:])),
    ])
    ref_instr = reference["instructions"]

    rows = []
    for policy, point in zip(policies, points):
        rows.append((
            policy,
            round(point["instructions"] / ref_instr, 3),
            round(point["mean_w"], 1),
            round(point["max_w"], 1),
        ))
    table = TableResult(
        headers=("policy", "norm_throughput", "mean_cpu_w", "max_cpu_w"),
        rows=tuple(rows),
        title=f"Policies at a {budget_w:.0f} W four-core budget",
    )
    return ExperimentResult(
        experiment_id="ablation_policies",
        description="fvsst vs uniform vs power-down vs utilization stepping",
        tables=[table],
        notes=[
            "fvsst should deliver the most throughput inside the budget by "
            "slowing the memory-bound processors preferentially; power-down "
            "strands whole applications; utilization stepping cannot tell "
            "saturated work from demanding work.",
        ],
    )


def run_daemon_design(seed: int = 2005, fast: bool = False
                      ) -> ExperimentResult:
    """Single-threaded vs multi-threaded daemon (Section 9's future work).

    The same synthetic benchmark runs under (a) no daemon, (b) the
    single-threaded prototype (all counter reads and actuations charged to
    one host core, co-located with the benchmark), and (c) the
    two-threads-per-processor design (user-level reads charged to the
    sampled core).  Scored on benchmark throughput impact and total stolen
    time.
    """
    from ..core.daemon import PER_CORE_OVERHEAD
    from ..sim.core import CoreConfig

    seeds = spawn_seeds(seed, 3)
    duration = 4.0 if fast else 10.0
    bench_core = 0

    def measure(variant: str, seed_: int) -> dict[str, float]:
        scenario = Scenario(num_cores=4, seed=seed_,
                            core_config=CoreConfig(latency_jitter_sigma=0.0))
        scenario.with_job(bench_core, SyntheticBenchmark(
            intensity_a=1.0, intensity_b=1.0,
            duration_a_s=1.0, duration_b_s=1.0,
            include_init_exit=False,
        ).job(loop=True))
        config = DaemonConfig(counter_noise_sigma=0.0,
                              daemon_core=bench_core)
        if variant == "single":
            scenario.with_governor("fvsst", daemon_config=config)
        elif variant == "multi":
            scenario.with_governor("fvsst", daemon_config=replace(
                config, overhead=PER_CORE_OVERHEAD))
        machine = scenario.run(duration).machine
        stolen = sum(c.overhead_executed_s for c in machine.cores)
        return {
            "instructions": machine.core(bench_core).counters.instructions,
            "stolen_s": stolen,
            "bench_core_stolen_s": machine.core(
                bench_core).overhead_executed_s,
        }

    base = measure("none", seeds[0])
    single = measure("single", seeds[1])
    multi = measure("multi", seeds[2])

    def impact(r):
        return 1.0 - r["instructions"] / base["instructions"]

    table = TableResult(
        headers=("daemon", "throughput_impact", "stolen_total_s",
                 "stolen_on_bench_core_s"),
        rows=(
            ("single-threaded", round(impact(single), 4),
             round(single["stolen_s"], 4),
             round(single["bench_core_stolen_s"], 4)),
            ("multi-threaded", round(impact(multi), 4),
             round(multi["stolen_s"], 4),
             round(multi["bench_core_stolen_s"], 4)),
        ),
        title="Daemon design: overhead placement and magnitude",
    )
    return ExperimentResult(
        experiment_id="ablation_daemon",
        description="single-threaded prototype vs two-threads-per-processor",
        tables=[table],
        scalars={
            "single_impact": impact(single),
            "multi_impact": impact(multi),
        },
        notes=[
            "The multi-threaded design reads counters at user level on "
            "each processor, so the benchmark core stops paying for its "
            "neighbours' samples — the Section 9 improvement, quantified.",
        ],
    )
