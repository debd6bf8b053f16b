"""The four end-to-end workloads, their result extraction and output checks.

Each workload is a whole simulated scenario built only through the public
API of :mod:`repro`.  A run builds it, advances one warm-up segment (which
pays the lazy fleet build), then times ``SEGMENTS`` equal ``sim.run_for``
segments over the workload's horizon and extracts the results the way a
user would (digests, log series, ledgers, counters).

Host time is what the benchmark measures; the simulated statistics are
outputs under check.  They are hashed into a fingerprint that must equal
the golden value for the default seed, and a set of invariants must hold
on any seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import fleet_fault_scenario
from repro.cluster.hierarchy import FleetAllocator, FleetConfig
from repro.model.latency import POWER4_LATENCIES
from repro.model.latency_model import service_time_s
from repro.power.supply import SupplyBank
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.sim.network import Network
from repro.sim.node import ClusterNode
from repro.sim.rng import spawn_seeds
from repro.workloads.job import Job, LoopMode
from repro.workloads.server import RequestSpec
from repro.workloads.serving import FleetTrafficSource, flash_crowd_rate
from repro.workloads.synthetic import synthetic_phase
from repro.workloads.tiers import tiered_cluster_assignment

#: Timed segments per run; the warm-up is one more segment of equal length.
SEGMENTS = 100
#: p99 target of the SLO-mode workload (and the compliance threshold
#: printed for every serving workload).
SLO_P99_S = 0.020

#: Slack for float comparisons of watts against a budget.
_W_EPS = 1e-6


@dataclass
class Scenario:
    """A built workload: the simulation plus the handles results come from."""

    sim: Simulation
    cluster: Cluster
    coordinators: list[ClusterCoordinator]
    budget_w: float
    traffic: FleetTrafficSource | None = None
    allocator: FleetAllocator | None = None
    #: Passes whose scheduled power exceeded the coordinator's limit
    #: without being flagged infeasible (must stay 0).
    over_limit_passes: int = 0
    infeasible_passes: int = 0
    passes: int = 0

    def __post_init__(self) -> None:
        # Every global pass's scheduled power is checked against the limit
        # the coordinator held when it scheduled.
        for coord in self.coordinators:
            coord.run_global_pass = self._checked_pass(coord)

    def _checked_pass(self, coord: ClusterCoordinator) -> Callable:
        inner = coord.run_global_pass

        def run_global_pass(now_s: float):
            limit = coord.power_limit_w
            schedule = inner(now_s)
            self.passes += 1
            if schedule.infeasible:
                self.infeasible_passes += 1
            elif limit is not None and \
                    schedule.total_power_w > limit + _W_EPS:
                self.over_limit_passes += 1
            return schedule

        return run_global_pass


def _serve_flash(seed: int, end_s: float) -> Scenario:
    """16 nodes x 4 jittered cores under a flash crowd, SLO-mode flat
    coordinator at half of peak CPU power."""
    nodes, procs = 16, 4
    config = MachineConfig(num_cores=procs,
                           core_config=CoreConfig(latency_jitter_sigma=0.02))
    cluster = Cluster.homogeneous(nodes, machine_config=config, seed=seed)
    table = cluster.nodes[0].machine.table
    budget = 0.5 * nodes * procs * table.max_power_w
    spec = RequestSpec()
    service = service_time_s(spec.signature(POWER4_LATENCIES),
                             spec.instructions, table.f_max_hz)
    cores = nodes * procs
    peak = 0.5 / service * cores
    rate = flash_crowd_rate(0.1 / service * cores, peak,
                            t_start_s=0.2 * end_s, ramp_s=0.17 * end_s,
                            hold_s=0.3 * end_s, decay_s=0.17 * end_s)
    sim = Simulation(cluster.machines)
    traffic = FleetTrafficSource(cluster, rate_per_s=rate,
                                 max_rate_per_s=peak, spec=spec,
                                 horizon_s=end_s, seed=seed + 7)
    coord = ClusterCoordinator(
        cluster, CoordinatorConfig(power_limit_w=budget,
                                   slo_p99_target_s=SLO_P99_S),
        seed=seed + 1)
    coord.bind_serving(traffic)
    coord.attach(sim)
    traffic.attach(sim)
    return Scenario(sim, cluster, [coord], budget, traffic=traffic)


def _banked_mixed(seed: int, end_s: float) -> Scenario:
    """16 four-core nodes, each behind a two-PSU bank: cores 2-3 loop a
    three-phase job, cores 0-1 serve 40 req/s each."""
    nodes, procs = 16, 4
    config = MachineConfig(num_cores=procs,
                           core_config=CoreConfig(latency_jitter_sigma=0.02))
    seeds = spawn_seeds(seed, nodes)
    cluster = Cluster([
        ClusterNode(i, SMPMachine(
            config, seed=seeds[i],
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False)))
        for i in range(nodes)], network=Network())
    phases = tuple(synthetic_phase(r, duration_s=0.05, name=f"p{i}")
                   for i, r in enumerate((1.0, 0.5, 0.2)))
    for node in cluster.nodes:
        for core in (2, 3):
            node.assign(core, Job(name=f"loop-n{node.node_id}c{core}",
                                  phases=phases, loop=LoopMode.LOOP))
    table = cluster.nodes[0].machine.table
    budget = 0.6 * nodes * procs * table.max_power_w
    fleet_rate = 40.0 * nodes * 2
    sim = Simulation(cluster.machines)
    traffic = FleetTrafficSource(cluster, rate_per_s=lambda t: fleet_rate,
                                 max_rate_per_s=fleet_rate, cores_per_node=2,
                                 horizon_s=end_s, seed=seed + 7)
    coord = ClusterCoordinator(cluster,
                               CoordinatorConfig(power_limit_w=budget),
                               seed=seed + 1)
    coord.attach(sim)
    traffic.attach(sim)
    return Scenario(sim, cluster, [coord], budget, traffic=traffic)


def _cap_closed(seed: int, end_s: float) -> Scenario:
    """The paper's cluster case: 256 nodes x 4 procs of tiered looping
    work under one flat coordinator (t = 10 ms, T = 100 ms) at 0.6x."""
    nodes, procs = 256, 4
    cluster = Cluster.homogeneous(
        nodes, machine_config=MachineConfig(num_cores=procs), seed=seed)
    cluster.assign_all(tiered_cluster_assignment(nodes, procs))
    table = cluster.nodes[0].machine.table
    budget = 0.6 * nodes * procs * table.max_power_w
    sim = Simulation(cluster.machines)
    coord = ClusterCoordinator(
        cluster, CoordinatorConfig(power_limit_w=budget,
                                   sample_period_s=0.010,
                                   schedule_period_s=0.100),
        seed=seed + 1)
    coord.attach(sim)
    return Scenario(sim, cluster, [coord], budget)


def _fleet_chaos(seed: int, end_s: float) -> Scenario:
    """1024 single-core nodes in 256 four-node shards under the ``chaos``
    fleet fault scenario (loss, jitter, uplink partition, agent crashes);
    the scenario of ``benchmarks/test_chaos_hier.py``."""
    nodes, procs, shard_size = 1024, 1, 4
    cluster = Cluster.homogeneous(
        nodes, machine_config=MachineConfig(
            num_cores=procs, core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=seed)
    cluster.assign_all(tiered_cluster_assignment(
        nodes, procs, web_nodes=nodes // 4, app_nodes=nodes // 4))
    table = cluster.nodes[0].machine.table
    budget = 0.7 * nodes * procs * table.max_power_w
    faults = fleet_fault_scenario("chaos", num_nodes=nodes,
                                  shard_size=shard_size, seed=seed + 101)
    allocator = FleetAllocator(
        cluster,
        CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0,
                          sample_period_s=0.1, schedule_period_s=0.2),
        fleet=FleetConfig(shard_size=shard_size, rebalance_period_s=0.2,
                          staleness_bound_s=0.3),
        faults=faults, seed=seed + 1)
    sim = Simulation(cluster.machines)
    allocator.attach(sim)
    return Scenario(sim, cluster, list(allocator.shards), budget,
                    allocator=allocator)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], Scenario]
    #: Simulated seconds timed (the warm-up adds one segment on top).
    horizon_s: float


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("serve-flash", _serve_flash, 1.0),
    Workload("banked-mixed", _banked_mixed, 0.8),
    Workload("cap-closed", _cap_closed, 1.0),
    Workload("fleet-chaos", _fleet_chaos, 1.0),
)}


def extract(sc: Scenario) -> dict:
    """Pull every reported statistic out through the public API (timed as
    part of ``cpu_s``: it is the work a user does to read a run)."""
    out: dict = {
        "energy_j": [[acc.energy_j for _, acc in
                      sorted(m.ledger.accounts.items())]
                     for m in sc.cluster.machines],
        "instructions": [c.counters.instructions
                         for m in sc.cluster.machines for c in m.cores],
        "cycles": [c.counters.cycles
                   for m in sc.cluster.machines for c in m.cores],
        "power_series": [c.log.power_series() for c in sc.coordinators],
        "floor_violations": sum(c.slo_floor_violations
                                for c in sc.coordinators),
    }
    if sc.traffic is not None:
        t = sc.traffic
        digest = t.fleet_digest()
        censored = t.fleet_digest(censored=True)
        out.update(
            issued=t.issued, completed=t.completed, in_flight=t.in_flight,
            digest_counts=list(digest.counts),
            p99_ms=digest.percentile(99.0) * 1e3 if digest.count else math.nan,
            slo_compliance=(censored.fraction_below(SLO_P99_S)
                            if censored.count else math.nan))
    if sc.allocator is not None:
        out["max_committed_w"] = sc.allocator.max_committed_w
    return out


def fingerprint(results: dict) -> str:
    """sha256 over every simulated statistic, bit-exact (floats hashed as
    their IEEE-754 bytes)."""
    h = hashlib.sha256()

    def put(label: str, values, dtype=np.float64) -> None:
        h.update(label.encode())
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())

    for i, accounts in enumerate(results["energy_j"]):
        put(f"energy{i}", accounts)
    put("instructions", results["instructions"])
    put("cycles", results["cycles"])
    for i, (times, totals) in enumerate(results["power_series"]):
        put(f"power_t{i}", times)
        put(f"power_w{i}", totals)
    if "issued" in results:
        put("requests", [results["issued"], results["completed"]], np.int64)
        put("digest", results["digest_counts"], np.int64)
    return h.hexdigest()


def checks(sc: Scenario, results: dict) -> dict[str, bool]:
    """Invariants that hold on any seed."""
    out = {
        "slo_floors_respected": results["floor_violations"] == 0,
        "passes_within_limit": sc.over_limit_passes == 0,
        "passes_ran": sc.passes > 0,
    }
    if "issued" in results:
        out["requests_conserved"] = (
            results["issued"] == results["completed"] + results["in_flight"])
    if "max_committed_w" in results:
        out["committed_within_budget"] = (
            results["max_committed_w"] <= sc.budget_w + _W_EPS)
    return out


def sim_summary(results: dict) -> dict[str, float]:
    """Simulated outputs printed for readers; never compared (the model
    is not validated against hardware in these scenarios)."""
    energy = float(sum(sum(a) for a in results["energy_j"]))
    return {
        "sim.energy_j": energy,
        "sim.p99_ms": results.get("p99_ms", math.nan),
        "sim.slo_compliance": results.get("slo_compliance", math.nan),
    }
