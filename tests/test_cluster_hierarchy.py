"""The hierarchical control plane: water-fill, shard summaries, the
fleet allocator, and the single-shard byte-identity with the flat path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import FaultSchedule, fault_scenario, fleet_fault_scenario
from repro.cluster.hierarchy import (
    FleetAllocator,
    FleetConfig,
    water_fill_budgets,
)
from repro.cluster.protocol import BudgetLease, ShardSummary, message_size_bytes
from repro.errors import ClusterError
from repro.power.table import POWER4_TABLE
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkFaults, PartitionWindow
from repro.telemetry import (
    EVENT_SHARD_LOST,
    EVENT_SHARD_REBALANCE,
    EVENT_SHARD_RECOVERED,
    Telemetry,
)
from repro.workloads.tiers import tiered_cluster_assignment


def quiet_cluster(nodes, procs=2, seed=0) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ),
        seed=seed,
    )


class TestWaterFill:
    def test_interpolates_between_rungs(self):
        ladders = np.array([[10.0, 20.0, 30.0],
                            [10.0, 15.0, 40.0]])
        budgets, infeasible = water_fill_budgets(ladders, 35.0)
        # totals = [20, 35, 70]; the budget lands exactly on rung 1.
        assert not infeasible
        assert budgets == pytest.approx([20.0, 15.0])
        budgets, _ = water_fill_budgets(ladders, 52.5)
        # Halfway up the rung-1 -> rung-2 span, same fraction for both.
        assert budgets == pytest.approx([25.0, 27.5])
        assert budgets.sum() == pytest.approx(52.5)

    def test_surplus_splits_slack_evenly(self):
        ladders = np.array([[5.0, 30.0], [5.0, 10.0]])
        budgets, infeasible = water_fill_budgets(ladders, 50.0)
        assert not infeasible
        assert budgets == pytest.approx([35.0, 15.0])

    def test_floor_and_infeasible(self):
        ladders = np.array([[10.0, 30.0], [10.0, 40.0]])
        budgets, infeasible = water_fill_budgets(ladders, 20.0)
        assert not infeasible
        assert budgets == pytest.approx([10.0, 10.0])
        budgets, infeasible = water_fill_budgets(ladders, 12.0)
        assert infeasible
        assert budgets == pytest.approx([10.0, 10.0])

    def test_fairness_favours_flat_ladders(self):
        # The memory-bound shard's ladder saturates early (capping costs it
        # nothing); the fill hands the spare budget to the steep shard.
        ladders = np.array([[10.0, 12.0, 12.5],    # memory-bound
                            [10.0, 40.0, 80.0]])   # CPU-bound
        budgets, _ = water_fill_budgets(ladders, 52.0)
        assert budgets[1] > budgets[0]
        assert budgets[0] == pytest.approx(12.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ClusterError):
            water_fill_budgets(np.array([1.0, 2.0]), 10.0)

    @given(
        shards=st.integers(1, 5),
        rungs=st.integers(1, 6),
        seed=st.integers(0, 1000),
        fraction=st.floats(0.0, 1.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_fill_conserves_budget_property(self, shards, rungs, seed,
                                            fraction):
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.0, 50.0, size=(shards, rungs))
        steps[:, 0] = rng.uniform(1.0, 20.0, size=shards)
        ladders = np.cumsum(steps, axis=1)
        floor = ladders[:, 0].sum()
        demand = ladders[:, -1].sum()
        budget = floor + fraction * (demand - floor)
        budgets, infeasible = water_fill_budgets(ladders, budget)
        assert not infeasible
        assert np.all(budgets >= ladders[:, 0] - 1e-9)
        if fraction <= 1.0:
            # Between floor and demand the fill spends the budget exactly.
            assert budgets.sum() == pytest.approx(budget)
        else:
            assert budgets.sum() == pytest.approx(budget)
            assert np.all(budgets >= ladders[:, -1] - 1e-9)


def _attached_allocator(nodes, shard_size, *, seed=7, budget_frac=0.7,
                        telemetry=None, faults=None, web=0, app=None,
                        fleet_kwargs=None):
    cluster = quiet_cluster(nodes, seed=seed)
    app = nodes // 2 if app is None else app
    cluster.assign_all(tiered_cluster_assignment(nodes, 2, web_nodes=web,
                                                 app_nodes=app))
    table = cluster.nodes[0].machine.table
    budget = budget_frac * nodes * 2 * table.max_power_w
    config = CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0,
                               sample_period_s=0.05, schedule_period_s=0.1)
    allocator = FleetAllocator(
        cluster, config,
        fleet=FleetConfig(shard_size=shard_size, **(fleet_kwargs or {})),
        telemetry=telemetry, faults=faults, seed=seed + 1)
    sim = Simulation(cluster.machines)
    allocator.attach(sim)
    return cluster, allocator, sim, budget


class TestShardSummary:
    def test_pessimistic_ladder_before_first_pass(self):
        cluster, allocator, sim, _ = _attached_allocator(4, 2)
        shard = allocator.shards[0]
        summary = shard.make_summary(0.0)
        table = POWER4_TABLE
        procs = shard.cluster.total_procs
        assert summary.capped_demand_w == tuple(
            p * procs for p in table.powers_w)
        assert summary.floor_w == pytest.approx(procs * table.min_power_w)
        assert summary.demand_w == pytest.approx(procs * table.max_power_w)

    def test_ladder_tracks_eps_rungs_after_pass(self):
        cluster, allocator, sim, _ = _attached_allocator(4, 2)
        sim.run_for(0.35)
        shard = allocator.shards[1]
        summary = shard.make_summary(sim.now_s)
        table = POWER4_TABLE
        schedule = shard.last_schedule
        assert schedule is not None
        eps = [table.index_of(a.eps_freq_hz) for a in schedule.assignments]
        # Top of the ladder = everyone at their step-1 rung.
        assert summary.demand_w == pytest.approx(
            sum(table.powers_w[i] for i in eps))
        # Bottom = everyone at the floor.
        assert summary.floor_w == pytest.approx(
            len(eps) * table.min_power_w)
        # Interior rung k caps each processor at min(eps, k).
        k = len(table) // 2
        assert summary.capped_demand_w[k] == pytest.approx(
            sum(table.powers_w[min(i, k)] for i in eps))
        assert summary.budget_w == shard.power_limit_w
        assert summary.healthy_nodes == len(shard.cluster.nodes)

    def test_summary_wire_size_is_o_rungs(self):
        summary = ShardSummary(
            shard_id=0, time_s=0.0, nodes=4, procs=8,
            capped_demand_w=tuple(float(i) for i in range(16)),
            mean_loss=0.0, budget_w=None, healthy_nodes=4, stale_nodes=0,
            lost_nodes=0)
        # Independent of node/proc counts: header + (7 + rungs) fields.
        assert message_size_bytes(summary) == 32 + (7 + 16) * 8

    def test_ladder_must_be_nondecreasing(self):
        with pytest.raises(ClusterError):
            ShardSummary(shard_id=0, time_s=0.0, nodes=1, procs=1,
                         capped_demand_w=(2.0, 1.0), mean_loss=0.0,
                         budget_w=None, healthy_nodes=1, stale_nodes=0,
                         lost_nodes=0)


class TestLeases:
    def test_stale_lease_is_dropped(self):
        cluster, allocator, sim, _ = _attached_allocator(4, 2)
        shard = allocator.shards[0]
        shard.apply_lease(BudgetLease(shard_id=0, time_s=1.0,
                                      budget_w=500.0), 1.0)
        assert shard.power_limit_w == 500.0
        shard.apply_lease(BudgetLease(shard_id=0, time_s=0.5,
                                      budget_w=900.0), 1.1)
        assert shard.power_limit_w == 500.0
        assert shard.leases_stale_dropped == 1

    def test_shrink_triggers_immediate_pass(self):
        cluster, allocator, sim, _ = _attached_allocator(4, 2)
        sim.run_for(0.35)
        shard = allocator.shards[0]
        passes_before = len(shard.log.schedule_entries)
        floor = shard.cluster.total_procs * POWER4_TABLE.min_power_w
        shard.apply_lease(BudgetLease(shard_id=0, time_s=sim.now_s,
                                      budget_w=floor), sim.now_s)
        assert len(shard.log.schedule_entries) > passes_before
        assert shard.last_schedule.total_power_w <= floor + 1e-9

    def test_negative_lease_rejected(self):
        with pytest.raises(ClusterError):
            BudgetLease(shard_id=0, time_s=0.0, budget_w=-1.0)


class TestFleetRebalance:
    def test_budget_flows_to_cpu_bound_shard(self):
        # Shard 0 = app tier (CPU-bound), shard 1 = db tier (memory-bound):
        # the fill caps the db shard near its cheap demand and hands the
        # freed watts to the app shard.
        cluster, allocator, sim, budget = _attached_allocator(
            4, 2, app=2, budget_frac=0.6)
        initial = [s.power_limit_w for s in allocator.shards]
        assert initial[0] == pytest.approx(initial[1])  # proportional seed
        sim.run_for(1.0)
        assert allocator.rebalances >= 4
        app_budget = allocator.shards[0].power_limit_w
        db_budget = allocator.shards[1].power_limit_w
        assert app_budget > db_budget
        assert app_budget + db_budget <= budget + 1e-6

    def test_committed_never_exceeds_fleet_budget(self):
        cluster, allocator, sim, budget = _attached_allocator(
            6, 2, budget_frac=0.55)
        sim.run_for(0.6)
        allocator.set_power_limit(budget * 0.7, sim.now_s)
        sim.run_for(0.6)
        allocator.set_power_limit(budget, sim.now_s)
        sim.run_for(0.6)
        assert allocator.rebalances >= 6
        assert allocator.max_committed_w <= budget + 1e-6
        assert sum(allocator.committed_w) <= budget + 1e-6

    def test_scheduled_power_honours_delegated_budgets(self):
        cluster, allocator, sim, budget = _attached_allocator(
            4, 2, budget_frac=0.6)
        sim.run_for(1.0)
        for shard in allocator.shards:
            assert shard.max_scheduled_power_w <= budget + 1e-6
            assert shard.last_schedule.total_power_w <= \
                shard.power_limit_w + 1e-9
        assert cluster.cpu_power_w() <= budget + 1e-6

    def test_rebalance_event_emitted(self):
        telemetry = Telemetry()
        cluster, allocator, sim, _ = _attached_allocator(
            4, 2, telemetry=telemetry)
        sim.run_for(0.5)
        assert telemetry.events.count(EVENT_SHARD_REBALANCE) == \
            allocator.rebalances

    def test_unlimited_budget_sends_no_shrinks(self):
        cluster = quiet_cluster(4, seed=3)
        cluster.assign_all(tiered_cluster_assignment(4, 2, web_nodes=0,
                                                     app_nodes=2))
        config = CoordinatorConfig(counter_noise_sigma=0.0,
                                   sample_period_s=0.05,
                                   schedule_period_s=0.1)
        allocator = FleetAllocator(cluster, config,
                                   fleet=FleetConfig(shard_size=2), seed=5)
        sim = Simulation(cluster.machines)
        allocator.attach(sim)
        sim.run_for(0.5)
        assert allocator.rebalances >= 2
        assert allocator.leases_sent == 0
        assert all(s.power_limit_w is None for s in allocator.shards)


class TestShardIsolation:
    def _partitioned(self, telemetry=None):
        # Cut shard 1's uplink (node 2) off the fleet tier for a window
        # long enough to cross the staleness bound.
        faults = FaultSchedule(
            network=NetworkFaults(
                partitions=(PartitionWindow(0.3, 1.1,
                                            node_ids=frozenset({2})),),
                seed=9),
            name="uplink-partition")
        return _attached_allocator(6, 2, telemetry=telemetry, faults=faults,
                                   fleet_kwargs={"rebalance_period_s": 0.2,
                                                 "staleness_bound_s": 0.3})

    def test_partitioned_shard_goes_stale_then_lost_then_recovers(self):
        telemetry = Telemetry()
        cluster, allocator, sim, budget = self._partitioned(telemetry)
        sim.run_for(0.9)
        assert allocator.shard_health[1] == "lost"
        sim.run_for(0.6)
        assert allocator.shard_health[1] in ("healthy", "recovered")
        assert telemetry.events.count(EVENT_SHARD_LOST) >= 1
        assert telemetry.events.count(EVENT_SHARD_RECOVERED) >= 1
        assert allocator.max_committed_w <= budget + 1e-6

    def test_healthy_shards_keep_scheduling_through_partition(self):
        cluster, allocator, sim, _ = self._partitioned()
        sim.run_for(1.0)
        # The fleet pass never blocked: rebalances kept firing...
        assert allocator.rebalances >= 4
        # ...and every shard (including the partitioned one, whose
        # *intra-rack* plane is intact) kept running local passes.
        for shard in allocator.shards:
            times = {e.time_s for e in shard.log.schedule_entries}
            assert max(times) > 0.85

    def test_lost_shard_budget_is_frozen_not_reallocated(self):
        cluster, allocator, sim, budget = self._partitioned()
        sim.run_for(0.9)
        assert allocator.shard_health[1] == "lost"
        frozen = allocator.committed_w[1]
        reachable = sum(w for i, w in enumerate(allocator.committed_w)
                        if i != 1)
        # The lost shard may still be drawing its budget; the others can
        # only be granted what remains.
        assert reachable <= budget - frozen + 1e-6


    def test_summary_timeout_applies_without_a_fault_plan(self):
        # No fault plan, yet every summary round trip outlasts the
        # timeout: each one is dropped and both shards go lost, as the
        # same timeout does under a plan.
        _, allocator, sim, _ = _attached_allocator(
            8, 4, fleet_kwargs={"summary_timeout_s": 1e-9})
        sim.run_for(1.0)
        assert allocator.rebalances == 5
        assert allocator.summaries_dropped == 2 * allocator.rebalances
        assert set(allocator.shard_health.values()) == {"lost"}


class TestSingleShardEquivalence:
    """shard_size >= nodes: the hierarchy must vanish byte-for-byte."""

    def _run_flat(self, scenario, seconds, limit_w):
        cluster = quiet_cluster(3, seed=11)
        cluster.assign_all(tiered_cluster_assignment(3, 2, web_nodes=1,
                                                     app_nodes=1))
        faults = fault_scenario(scenario, seed=13) if scenario else None
        coord = ClusterCoordinator(
            cluster,
            CoordinatorConfig(power_limit_w=limit_w,
                              counter_noise_sigma=0.0),
            faults=faults, seed=21)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(seconds)
        coord.set_power_limit(limit_w * 0.8, sim.now_s)
        sim.run_for(0.15)
        return cluster, coord

    def _run_hier(self, scenario, seconds, limit_w):
        cluster = quiet_cluster(3, seed=11)
        cluster.assign_all(tiered_cluster_assignment(3, 2, web_nodes=1,
                                                     app_nodes=1))
        faults = fault_scenario(scenario, seed=13) if scenario else None
        allocator = FleetAllocator(
            cluster,
            CoordinatorConfig(power_limit_w=limit_w,
                              counter_noise_sigma=0.0),
            fleet=FleetConfig(shard_size=8),
            faults=faults, seed=21)
        sim = Simulation(cluster.machines)
        allocator.attach(sim)
        sim.run_for(seconds)
        allocator.set_power_limit(limit_w * 0.8, sim.now_s)
        sim.run_for(0.15)
        return cluster, allocator

    @pytest.mark.parametrize("scenario", [None, "lossy"])
    def test_single_shard_matches_flat_coordinator(self, scenario):
        seconds, limit_w = 0.55, 330.0
        flat_cluster, flat = self._run_flat(scenario, seconds, limit_w)
        hier_cluster, allocator = self._run_hier(scenario, seconds, limit_w)
        assert not allocator.hierarchical
        shard = allocator.shards[0]
        flat_entries = [dataclasses.replace(e, pass_wall_s=None)
                        for e in flat.log.schedule_entries]
        hier_entries = [dataclasses.replace(e, pass_wall_s=None)
                        for e in shard.log.schedule_entries]
        assert flat_entries == hier_entries
        for fn, hn in zip(flat_cluster.nodes, hier_cluster.nodes):
            for fc, hc in zip(fn.machine.cores, hn.machine.cores):
                assert fc.frequency_setting_hz == hc.frequency_setting_hz
                assert fc.counters.instructions == hc.counters.instructions
        # No hierarchical traffic rode the fabric.
        assert flat_cluster.network.messages_sent == \
            hier_cluster.network.messages_sent
        assert flat_cluster.network.bytes_sent == \
            hier_cluster.network.bytes_sent
        assert allocator.rebalances == 0 and allocator.leases_sent == 0


class TestFleetConfigValidation:
    def test_rejects_bad_shard_size(self):
        with pytest.raises(ClusterError):
            FleetConfig(shard_size=0)

    def test_rejects_timeout_beyond_staleness(self):
        with pytest.raises(ClusterError):
            FleetConfig(summary_timeout_s=1.0, staleness_bound_s=0.5)

    def test_period_defaults_derive_from_schedule_period(self):
        fleet = FleetConfig()
        assert fleet.effective_rebalance_period_s(0.1) == pytest.approx(0.2)
        assert fleet.effective_staleness_bound_s(0.1) == pytest.approx(0.6)


class TestCoordinatorConfigTimeoutValidation:
    def test_rejects_report_timeout_beyond_staleness_bound(self):
        with pytest.raises(ClusterError, match="staleness"):
            CoordinatorConfig(report_timeout_s=1.0, staleness_bound_s=0.5)

    def test_rejects_report_timeout_beyond_default_bound(self):
        # Default bound is 3 scheduling periods.
        with pytest.raises(ClusterError, match="staleness"):
            CoordinatorConfig(schedule_period_s=0.1, report_timeout_s=0.5)

    def test_accepts_timeout_within_bound(self):
        config = CoordinatorConfig(report_timeout_s=0.2,
                                   staleness_bound_s=0.5)
        assert config.report_timeout_s == 0.2


class TestFleetFaultScenarios:
    def test_partition_cuts_uplinks_only(self):
        plan = fleet_fault_scenario("partition", num_nodes=64, shard_size=4,
                                    seed=1)
        windows = plan.network.partitions
        assert len(windows) == 1
        cut = windows[0].node_ids
        assert cut and all(n % 4 == 0 for n in cut)

    def test_unknown_name_lists_descriptions(self):
        with pytest.raises(ClusterError, match="uplinks partitioned"):
            fleet_fault_scenario("nope", num_nodes=8, shard_size=4)

    def test_chaos_is_deterministic_in_seed(self):
        a = fleet_fault_scenario("chaos", num_nodes=32, shard_size=4, seed=2)
        b = fleet_fault_scenario("chaos", num_nodes=32, shard_size=4, seed=2)
        assert a.network.partitions == b.network.partitions
        assert a.crashes == b.crashes
        assert [a.network._rng.random() for _ in range(3)] == \
            [b.network._rng.random() for _ in range(3)]
