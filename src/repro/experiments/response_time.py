"""Response time to a power-limit drop: trigger design vs the deadline.

The motivating example's entire requirement is temporal: be under the new
limit within ``DeltaT`` of the supply failure.  Three designs race the
deadline here:

* **trigger** — the paper's design: the limit change fires an immediate
  scheduling pass (response bounded by one actuation).
* **timer-only** — the daemon learns the new limit only at its next
  periodic pass: response is uniform in ``(0, T]``, so large ``T`` (chosen
  to amortise overhead) directly risks the deadline.
* **cluster** — the trigger path through the coordinator, paying network
  collection/dispatch delays.

The timer-only rows sweep ``T`` to show the overhead-vs-response tension
that makes the trigger mechanism necessary rather than convenient.
"""

from __future__ import annotations

from .. import constants
from ..analysis.report import ExperimentResult, TableResult
from ..cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from ..core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
from ..errors import ExperimentError
from ..sim.cluster import Cluster
from ..sim.core import CoreConfig
from ..sim.driver import Simulation
from ..sim.machine import MachineConfig, SMPMachine
from ..sim.rng import spawn_seeds
from ..workloads.profiles import ALL_PROFILES

__all__ = ["run", "TIMER_MULTIPLIERS"]

TIMER_MULTIPLIERS = (10, 50, 100)
LIMIT_W = 200.0
T0_S = 1.03   # deliberately off the scheduling grid


def _machine(seed: int) -> SMPMachine:
    machine = SMPMachine(MachineConfig(
        num_cores=4,
        core_config=CoreConfig(latency_jitter_sigma=0.0),
    ), seed=seed)
    for i, app in enumerate(("gzip", "gap", "mcf", "health")):
        machine.assign(i, ALL_PROFILES[app].job(loop=True))
    return machine


def _response_of(machine, sim, apply_limit) -> float:
    """Time from T0 until measured CPU power first complies."""
    sim.run_for(T0_S)
    apply_limit(sim.now_s)
    deadline = sim.now_s + 5.0
    while sim.now_s < deadline:
        if machine.cpu_power_w() <= LIMIT_W + 1e-9:
            return sim.now_s - T0_S
        sim.run_for(0.001)
    raise ExperimentError("never complied within 5 s")


def _trigger(seed: int) -> float:
    machine = _machine(seed)
    daemon = FvsstDaemon(machine, DaemonConfig(
        counter_noise_sigma=0.0, overhead=OverheadModel(enabled=False)),
        seed=seed + 1)
    sim = Simulation(machine)
    daemon.attach(sim)
    return _response_of(machine, sim,
                        lambda t: daemon.set_power_limit(LIMIT_W, t))


def _timer_only(multiplier: int, seed: int) -> float:
    machine = _machine(seed)
    daemon = FvsstDaemon(machine, DaemonConfig(
        schedule_every=multiplier,
        counter_noise_sigma=0.0, overhead=OverheadModel(enabled=False)),
        seed=seed + 1)
    sim = Simulation(machine)
    daemon.attach(sim)

    def apply(t: float) -> None:
        # The limit becomes known but no trigger fires: the next periodic
        # pass discovers it.
        daemon.power_limit_w = LIMIT_W

    return _response_of(machine, sim, apply)


def _cluster(seed: int) -> float:
    cluster = Cluster.homogeneous(
        2,
        machine_config=MachineConfig(
            num_cores=2, core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=seed)
    for n, node in enumerate(cluster.nodes):
        for p in range(2):
            app = ("gzip", "gap", "mcf", "health")[2 * n + p]
            node.assign(p, ALL_PROFILES[app].job(loop=True))
    coordinator = ClusterCoordinator(
        cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=seed + 1)
    sim = Simulation(cluster.machines)
    coordinator.attach(sim)
    sim.run_for(T0_S)
    coordinator.set_power_limit(LIMIT_W, sim.now_s)
    deadline = sim.now_s + 5.0
    while sim.now_s < deadline:
        if cluster.cpu_power_w() <= LIMIT_W + 1e-9:
            return sim.now_s - T0_S
        sim.run_for(0.001)
    raise ExperimentError("cluster never complied within 5 s")


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Measure response times across the designs (fast flag unused —
    each run is sub-second of simulated time)."""
    seeds = spawn_seeds(seed, 2 + len(TIMER_MULTIPLIERS))
    rows: list[tuple] = []

    trigger = _trigger(seeds[0])
    rows.append(("trigger (paper)", "-", round(trigger, 4)))
    for multiplier, s in zip(TIMER_MULTIPLIERS, seeds[1:]):
        response = _timer_only(multiplier, s)
        rows.append((
            "timer-only", f"T={multiplier * 10} ms", round(response, 4),
        ))
    cluster = _cluster(seeds[-1])
    rows.append(("cluster trigger", "2 nodes", round(cluster, 4)))

    table = TableResult(
        headers=("design", "parameter", "response_s"),
        rows=tuple(rows),
        title=f"Time to comply with a {LIMIT_W:.0f} W drop at t={T0_S}s "
              f"(deadline DeltaT = {constants.PSU_CASCADE_DEADLINE_S}s)",
    )
    return ExperimentResult(
        experiment_id="response_time",
        description="limit-change response: trigger vs timer vs cluster",
        tables=[table],
        scalars={
            "trigger_response_s": trigger,
            "cluster_response_s": cluster,
            "worst_timer_response_s": max(r[2] for r in rows
                                          if r[0] == "timer-only"),
        },
        notes=[
            "The trigger path responds within one sampling tick regardless "
            "of T; timer-only discovery scales with T and at T = 1 s "
            "flirts with the cascade deadline; the cluster pays network "
            "delays on top of the trigger, still well inside DeltaT.",
        ],
    )
