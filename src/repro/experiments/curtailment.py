"""Curtailment during peak traffic: SLO compliance vs energy.

The cluster-cap experiment shows throughput under a budget; this one asks
the question a serving fleet actually cares about: *when the power budget
tightens during a flash crowd, what happens to the latency SLO?*  A
homogeneous cluster serves open-loop Poisson traffic (a flash-crowd ramp
peaking mid-run) while the coordinator schedules under progressively
tighter budgets, once with the SLO-aware mode on (a p99 target translated
into per-node frequency floors each pass) and once, at the tightest
budget, with it off — the contrast row showing what the budget alone
would have done to the tail.

Reported per budget level: total CPU energy, raw and censored p99 (the
censored digest folds in each in-flight request's latency lower bound, so
overload cannot hide its own tail), SLO compliance (the fraction of
requests at or below the target), and the floors-respected witness (count
of scheduled frequencies below their node's floor — must stay zero).
"""

from __future__ import annotations

import math

from ..analysis.report import ExperimentResult, TableResult
from ..cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from ..cluster.hierarchy import FleetAllocator, FleetConfig
from ..exec.pool import parallel_map
from ..model.latency import POWER4_LATENCIES
from ..model.latency_model import service_time_s
from ..sim.cluster import Cluster
from ..sim.driver import Simulation
from ..sim.machine import MachineConfig
from ..sim.rng import spawn_seeds
from ..workloads.server import RequestSpec
from ..workloads.serving import FleetTrafficSource, flash_crowd_rate

__all__ = ["run", "NODES", "PROCS", "BUDGET_FRACTIONS",
           "DEFAULT_SLO_P99_MS"]

NODES = 3
PROCS = 2
#: Budget levels swept, as fractions of peak processor power (ascending,
#: so the compliance column should read non-decreasing top to bottom).
BUDGET_FRACTIONS = (0.3, 0.5, 0.75, 1.0)
#: Default p99 target when the CLI's --slo-p99-ms is not given.  Chosen
#: so the floors genuinely bind at the tight budgets (infeasible passes
#: > 0) while the tail at f_max still clears the target with margin.
DEFAULT_SLO_P99_MS = 20.0
#: Peak per-core utilisation at f_max; lower frequencies push rho (and
#: the predicted tail) up from here, which is what makes the floor bind.
PEAK_RHO = 0.5
BASE_RHO = 0.1


def _run_curtailment(budget_fraction: float, *, seed: int, fast: bool,
                     target_s: float, enforce: bool,
                     shards: int | None = None) -> dict[str, float]:
    duration = 2.4 if fast else 6.0
    cluster = Cluster.homogeneous(
        NODES, machine_config=MachineConfig(num_cores=PROCS), seed=seed
    )
    table = cluster.nodes[0].machine.table
    budget = budget_fraction * NODES * PROCS * table.max_power_w

    spec = RequestSpec()
    service = service_time_s(spec.signature(POWER4_LATENCIES),
                             spec.instructions, table.f_max_hz)
    cores = NODES * PROCS
    peak = PEAK_RHO / service * cores
    base = BASE_RHO / service * cores
    if fast:
        t_start, ramp, hold, decay = 0.5, 0.4, 0.7, 0.4
    else:
        t_start, ramp, hold, decay = 1.0, 1.0, 2.5, 1.0
    rate = flash_crowd_rate(base, peak, t_start_s=t_start, ramp_s=ramp,
                            hold_s=hold, decay_s=decay)

    sim = Simulation(cluster.machines)
    traffic = FleetTrafficSource(
        cluster, rate_per_s=rate, max_rate_per_s=peak, spec=spec,
        horizon_s=duration, seed=seed + 7,
    )
    config = CoordinatorConfig(
        power_limit_w=budget,
        slo_p99_target_s=target_s if enforce else None,
    )
    if shards is not None:
        allocator = FleetAllocator(cluster, config,
                                   fleet=FleetConfig(shard_size=shards),
                                   seed=seed + 1)
        allocator.bind_serving(traffic)
        allocator.attach(sim)
        coordinators: list[ClusterCoordinator] = list(allocator.shards)
    else:
        coordinator = ClusterCoordinator(cluster, config, seed=seed + 1)
        coordinator.bind_serving(traffic)
        coordinator.attach(sim)
        coordinators = [coordinator]
    traffic.attach(sim)
    sim.run_for(duration)

    censored = traffic.fleet_digest(censored=True, horizon_s=duration)
    raw = traffic.fleet_digest()
    return {
        "fraction": budget_fraction,
        "budget_w": budget,
        "energy_j": sum(m.ledger.total_energy_j for m in cluster.machines),
        "issued": float(traffic.issued),
        "completed": float(traffic.completed),
        "p99_raw_ms": (raw.percentile(99.0) * 1e3 if raw.count
                       else math.inf),
        "p99_censored_ms": (censored.percentile(99.0) * 1e3
                            if censored.count else math.inf),
        "compliance": (censored.fraction_below(target_s)
                       if censored.count else 0.0),
        "floor_violations": float(sum(c.slo_floor_violations
                                      for c in coordinators)),
        "infeasible_passes": float(sum(c.slo_infeasible_passes
                                       for c in coordinators)),
        "fleet_advances": float(sim.fleet_advances),
        "fleet_fallbacks": float(sum(sim.fleet_fallbacks.values())),
        "fleet_transient_fallbacks": float(
            sim.fleet_fallbacks.get("transient", 0)),
    }


def _curtailment_task(task: tuple[float, int, bool, float, bool,
                                  int | None]) -> dict[str, float]:
    """Picklable wrapper so the budget levels fan across a pool."""
    fraction, seed, fast, target_s, enforce, shards = task
    return _run_curtailment(fraction, seed=seed, fast=fast,
                            target_s=target_s, enforce=enforce,
                            shards=shards)


def run(seed: int = 2005, fast: bool = False,
        slo_p99_ms: float | None = None,
        shards: int | None = None) -> ExperimentResult:
    """Run the peak-traffic curtailment sweep.

    Each budget level is an independent run (own pre-spawned seed), so
    the sweep fans across worker processes under ``--jobs``; the final
    row repeats the tightest budget with SLO mode off as the contrast.
    With ``shards`` (the CLI's ``--shards``) every run goes through the
    hierarchical control plane instead of the flat coordinator.
    """
    target_ms = DEFAULT_SLO_P99_MS if slo_p99_ms is None else slo_p99_ms
    target_s = target_ms / 1e3
    seeds = spawn_seeds(seed, len(BUDGET_FRACTIONS) + 1)
    tasks: list[tuple[float, int, bool, float, bool, int | None]] = [
        (fraction, seeds[i], fast, target_s, True, shards)
        for i, fraction in enumerate(BUDGET_FRACTIONS)
    ]
    tasks.append((BUDGET_FRACTIONS[0], seeds[-1], fast, target_s, False,
                  shards))
    results = parallel_map(_curtailment_task, tasks)
    slo_rows = results[:len(BUDGET_FRACTIONS)]
    contrast = results[-1]

    def row(label: str, r: dict[str, float]) -> tuple:
        return (
            label,
            round(r["budget_w"], 0),
            round(r["energy_j"], 1),
            round(r["p99_raw_ms"], 2),
            round(r["p99_censored_ms"], 2),
            round(r["compliance"], 4),
            int(r["floor_violations"]),
            int(r["infeasible_passes"]),
        )

    table = TableResult(
        headers=("policy", "budget_w", "energy_j", "p99_raw_ms",
                 "p99_censored_ms", "slo_compliance", "floor_violations",
                 "infeasible_passes"),
        rows=tuple(
            [row(f"slo@{r['fraction']:.0%}", r) for r in slo_rows]
            + [row(f"no-slo@{contrast['fraction']:.0%}", contrast)]
        ),
        title=f"Curtailment during peak traffic: p99 target "
              f"{target_ms:g} ms, {NODES} nodes x {PROCS} procs, "
              f"flash-crowd peak at {PEAK_RHO:.0%} per-core load",
    )

    advances = sum(r["fleet_advances"] for r in results)
    fallbacks = sum(r["fleet_fallbacks"] for r in results)
    spans = advances + fallbacks
    compliance = [r["compliance"] for r in slo_rows]
    monotone = all(b >= a - 0.02
                   for a, b in zip(compliance, compliance[1:]))
    floors_ok = all(r["floor_violations"] == 0 for r in slo_rows)
    scalars = {
        "compliance_min_budget": compliance[0],
        "compliance_max_budget": compliance[-1],
        "compliance_monotone": 1.0 if monotone else 0.0,
        "floors_respected": 1.0 if floors_ok else 0.0,
        "no_slo_compliance": contrast["compliance"],
        "slo_energy_j_min_budget": slo_rows[0]["energy_j"],
        "slo_energy_j_max_budget": slo_rows[-1]["energy_j"],
        # Serving-path residency: fraction of machine-spans the fleet
        # columnar kernel kept resident across all runs (1.0 when no
        # span was counted).
        "fleet_residency": advances / spans if spans else 1.0,
        "fleet_transient_fallbacks": sum(
            r["fleet_transient_fallbacks"] for r in results),
    }
    notes = [
        "SLO mode translates the p99 target into per-node frequency "
        "floors each pass; floors win over the budget, so a tight "
        "curtailment shows up as infeasible passes (budget breach "
        "events), never as scheduled frequencies below the floor.",
        "Compliance is scored on the censored digest (in-flight "
        "requests count at their latency lower bound), so overload "
        "cannot hide its own tail; the raw p99 column shows the "
        "survivorship-biased value for contrast.",
        "The no-slo contrast row runs the tightest budget without "
        "floors: the energy saved is real, and so is the tail it "
        "costs.",
    ]
    return ExperimentResult(
        experiment_id="curtailment",
        description="SLO compliance vs energy under curtailment at "
                    "peak serving traffic",
        tables=(table,),
        scalars=scalars,
        notes=notes,
    )
