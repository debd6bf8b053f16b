"""Datacenter-scale chaos smoke: 1024 nodes, 256 shards, injected faults.

Runs the hierarchical control plane at the scale the flat coordinator was
built to escape — 256 four-node shards under one fleet budget — through
every fleet fault scenario (``partition``: a rack-row of uplinks cut;
``crash``: every 64th agent down; ``chaos``: loss + jitter + both) and
checks the resilience contract docs/RESILIENCE.md pins:

* the fleet pass never blocks on a sick shard (rebalances keep firing
  straight through the partition window);
* every shard's *intra-rack* control plane keeps scheduling even while
  its uplink is cut;
* shard health transitions are visible through telemetry (lost and
  recovered events, health gauges); and
* the pessimistic committed accounting never promises more than the
  fleet budget, no matter what the fabric drops.

This lives in benchmarks/ (not tier-1 tests/) because a 1024-node run
costs seconds; CI runs it as the chaos-hier job, one seed per matrix
entry selected with ``-k seed<N>``.

Each seed also asserts a wall-clock budget (``CHAOS_WALL_BUDGET_S``,
default 30 s): the fleet-wide columnar kernel advances all 1024 machines
in one numpy pass per event-free span, which took this run from ~2 min
per seed to ~3 s.  The budget keeps that property pinned — a change that
knocks these machines out of fleet residency blows it immediately, long
before it merely "feels slow".
"""

import os
import time

import pytest

from repro.cluster.coordinator import CoordinatorConfig
from repro.cluster.faults import fleet_fault_scenario
from repro.cluster.hierarchy import FleetAllocator, FleetConfig
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.telemetry import (
    EVENT_SHARD_LOST,
    EVENT_SHARD_RECOVERED,
    Telemetry,
)
from repro.workloads.tiers import tiered_cluster_assignment

NODES = 1024
PROCS = 1
SHARD_SIZE = 4
NUM_SHARDS = NODES // SHARD_SIZE
BUDGET_FRACTION = 0.7

SEEDS = [pytest.param(2005, id="seed2005"),
         pytest.param(7, id="seed7"),
         pytest.param(424242, id="seed424242")]
SCENARIOS = ["partition", "crash", "chaos"]

#: Per-run wall budget; override for unusually slow machines.
WALL_BUDGET_S = float(os.environ.get("CHAOS_WALL_BUDGET_S", "30"))


def _chaos_run(seed: int, scenario: str = "chaos"):
    cluster = Cluster.homogeneous(
        NODES,
        machine_config=MachineConfig(
            num_cores=PROCS,
            core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=seed)
    cluster.assign_all(tiered_cluster_assignment(
        NODES, PROCS, web_nodes=NODES // 4, app_nodes=NODES // 4))
    table = cluster.nodes[0].machine.table
    budget = BUDGET_FRACTION * NODES * PROCS * table.max_power_w
    faults = fleet_fault_scenario(scenario, num_nodes=NODES,
                                  shard_size=SHARD_SIZE, seed=seed + 101)
    telemetry = Telemetry()
    # Coarse periods: every jittered message delivery is its own event
    # time and the simulator advances all 1024 machines at each one, so
    # control traffic — not the schedule math — dominates the wall clock.
    allocator = FleetAllocator(
        cluster,
        CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0,
                          sample_period_s=0.1, schedule_period_s=0.2),
        fleet=FleetConfig(shard_size=SHARD_SIZE, rebalance_period_s=0.2,
                          staleness_bound_s=0.3),
        telemetry=telemetry, faults=faults, seed=seed + 1)
    sim = Simulation(cluster.machines)
    allocator.attach(sim)
    # The chaos windows live in [0.35, 0.9); run past the heal so the
    # partitioned shards can recover.
    sim.run_for(1.2)
    return allocator, telemetry, budget, sim


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fleet_faults_1024_nodes(scenario, seed):
    wall0 = time.perf_counter()
    allocator, telemetry, budget, sim = _chaos_run(seed, scenario)
    wall = time.perf_counter() - wall0
    assert wall <= WALL_BUDGET_S, (
        f"chaos run took {wall:.1f}s (> {WALL_BUDGET_S:.0f}s): machines "
        f"likely fell out of fleet-kernel residency")
    assert allocator.num_shards == NUM_SHARDS

    # Residency gate: the wall budget above is the blunt instrument, this
    # is the precise one.  Nearly every machine-span must go through the
    # fleet columns; a change that silently demotes a machine class to
    # the scalar path shows up here as a falling ratio.
    adv = sim.fleet_advances
    fell = sum(sim.fleet_fallbacks.values())
    assert adv > 0
    residency = adv / (adv + fell)
    assert residency >= 0.90, (
        f"fleet residency {residency:.1%} ({adv} advances, {fell} "
        f"fallbacks): machine-spans are leaking to the scalar path")

    # The fleet pass never blocked: one rebalance per period, throughout.
    assert allocator.rebalances >= 5

    if scenario in ("partition", "chaos"):
        # The rack-row uplink partition actually bit, and telemetry saw
        # the transitions in *and out* of lost.
        assert telemetry.events.count(EVENT_SHARD_LOST) >= 1
        assert telemetry.events.count(EVENT_SHARD_RECOVERED) >= 1
        assert allocator.summaries_dropped > 0
    else:
        # A crashed agent takes out node reports inside its rack, never
        # the uplink: the fleet tier stays fully connected.
        assert telemetry.events.count(EVENT_SHARD_LOST) == 0

    # Post-heal, the fleet converged back.  Under chaos the 5% message
    # loss never stops, so a few shards can legitimately miss both
    # post-heal rebalance rounds (four try_send legs per round trip);
    # all but a thin tail must be back.
    lost_now = [sid for sid, state in allocator.shard_health.items()
                if state == "lost"]
    # partition keeps a 2% background loss after the heal, so give it a
    # (smaller) tail too; crash has a loss-free fabric: zero tolerance.
    tail = {"chaos": NUM_SHARDS // 32,
            "partition": NUM_SHARDS // 64,
            "crash": 0}[scenario]
    assert len(lost_now) <= tail, (
        f"{len(lost_now)} shards still lost after the heal: {lost_now}")

    # Every shard's intra-rack plane kept scheduling through the window
    # (the partition only cuts the uplink, never the rack) — including
    # the shards the allocator still counts as lost.
    for shard in allocator.shards:
        times = {e.time_s for e in shard.log.schedule_entries}
        assert times and max(times) > 0.9, (
            f"shard {shard.shard_id} stopped scheduling")

    # Budget safety: the committed watts never exceeded the fleet budget.
    assert allocator.max_committed_w <= budget + 1e-6
