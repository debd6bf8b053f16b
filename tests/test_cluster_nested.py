"""Nested per-node budgets: ``schedule(..., node_limits_w=...)``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.core.scheduler import FrequencyVoltageScheduler, ProcessorView
from repro.errors import SchedulingError, UnitError
from repro.experiments import run_experiment
from repro.model.ipc import WorkloadSignature
from repro.power.table import POWER4_TABLE
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.telemetry import Telemetry
from repro.units import ghz
from repro.workloads.tiers import tiered_cluster_assignment
from tests.conftest import node_power_w

ratios = st.floats(0.05, 20.0)


def sig(ratio: float) -> WorkloadSignature:
    return WorkloadSignature(core_cpi=0.65,
                             mem_time_per_instr_s=0.65 / ratio / ghz(1.0))


def views_for(node_ratios: dict[int, list[float]]) -> list[ProcessorView]:
    out = []
    for node_id, rs in sorted(node_ratios.items()):
        for proc_id, r in enumerate(rs):
            out.append(ProcessorView(node_id=node_id, proc_id=proc_id,
                                     signature=sig(r)))
    return out


class TestNestedScheduler:
    def test_node_limit_enforced_locally_only(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        v = views_for({0: [10.0, 10.0], 1: [10.0, 10.0]})
        schedule = sched.schedule(v, None, node_limits_w={0: 150.0})
        assert node_power_w(schedule, 0) <= 150.0
        assert node_power_w(schedule, 1) == pytest.approx(280.0)

    def test_global_and_node_limits_compose(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        v = views_for({0: [10.0, 10.0], 1: [10.0, 10.0]})
        schedule = sched.schedule(v, 300.0, node_limits_w={0: 100.0})
        assert node_power_w(schedule, 0) <= 100.0
        assert schedule.total_power_w <= 300.0

    def test_unknown_node_rejected(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        v = views_for({0: [1.0]})
        with pytest.raises(SchedulingError):
            sched.schedule(v, None, node_limits_w={5: 100.0})

    def test_ceiling_validated_with_node_limits(self):
        # The same checks as without node limits: a non-positive ceiling
        # is a unit error, one below the ladder a scheduling error.
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        v = views_for({0: [1.0, 0.1]})
        with pytest.raises(UnitError):
            sched.schedule(v, node_limits_w={0: 100.0}, max_freq_hz=-5.0)
        with pytest.raises(SchedulingError):
            sched.schedule(v, node_limits_w={0: 100.0}, max_freq_hz=1e6)

    def test_node_limits_count_in_scheduler_metrics(self):
        tel = Telemetry()
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04,
                                          telemetry=tel)
        v = views_for({0: [10.0, 10.0], 1: [10.0, 10.0]})
        schedule = sched.schedule(v, 250.0, node_limits_w={0: 100.0})
        metrics = tel.snapshot()["metrics"]

        def value(name):
            return metrics[name]["series"][0]["value"]

        assert value("scheduler_passes_total") == 1
        assert value("scheduler_step1_evaluations_total") == 4
        # Node 0's pass and the global pass both reduce.
        assert value("scheduler_step2_iterations_total") == \
            schedule.reduction_steps > 0
        assert value("scheduler_loss_evaluations_total") > \
            4 * len(POWER4_TABLE)

    def test_no_limits_matches_plain_schedule(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        v = views_for({0: [5.0, 0.075], 1: [0.3, 1.0]})
        for limit in (None, 300.0):
            a = sched.schedule(v, limit, node_limits_w={})
            b = sched.schedule(v, limit)
            assert a == b

    @given(
        node_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_limits_respected_property(self, node_sizes, seed, data):
        import numpy as np
        rng = np.random.default_rng(seed)
        node_ratios = {
            n: [float(np.exp(rng.uniform(np.log(0.05), np.log(20))))
                for _ in range(k)]
            for n, k in enumerate(node_sizes)
        }
        v = views_for(node_ratios)
        # Feasible per-node limits (>= node floor).
        node_limits = {}
        for n, k in enumerate(node_sizes):
            if data.draw(st.booleans(), label=f"limit-node-{n}"):
                lo = k * POWER4_TABLE.min_power_w
                node_limits[n] = data.draw(
                    st.floats(lo, k * 140.0), label=f"limit-{n}")
        total_procs = sum(node_sizes)
        global_limit = data.draw(
            st.one_of(st.none(),
                      st.floats(total_procs * POWER4_TABLE.min_power_w,
                                total_procs * 140.0)),
            label="global")
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        schedule = sched.schedule(v, global_limit, node_limits_w=node_limits)
        for n, limit in node_limits.items():
            assert node_power_w(schedule, n) <= limit + 1e-9
        if global_limit is not None:
            assert schedule.total_power_w <= global_limit + 1e-9


class TestDelegatedBudgetShrink:
    """The hierarchy's rebalance shrinks a shard's *global* budget
    mid-run; the scheduler must never respond by raising any processor
    above its pre-shrink rung (the greedy reduction at the lower limit is
    a superset of the reductions at the higher one)."""

    def test_shrink_never_raises_any_processor(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        v = views_for({0: [10.0, 0.3], 1: [5.0, 0.08]})
        before = sched.schedule(v, 400.0, node_limits_w={0: 180.0})
        after = sched.schedule(v, 300.0, node_limits_w={0: 180.0})
        for a, b in zip(before.assignments, after.assignments):
            assert (b.node_id, b.proc_id) == (a.node_id, a.proc_id)
            assert b.freq_hz <= a.freq_hz + 1e-9

    @given(
        node_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_shrink_monotone_property(self, node_sizes, seed, data):
        import numpy as np
        rng = np.random.default_rng(seed)
        node_ratios = {
            n: [float(np.exp(rng.uniform(np.log(0.05), np.log(20))))
                for _ in range(k)]
            for n, k in enumerate(node_sizes)
        }
        v = views_for(node_ratios)
        total = sum(node_sizes)
        floor = total * POWER4_TABLE.min_power_w
        b1 = data.draw(st.floats(floor, total * 140.0), label="budget")
        b2 = data.draw(st.floats(floor, b1), label="shrunk")
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        before = sched.schedule(v, b1, node_limits_w={},
                                on_infeasible="floor")
        after = sched.schedule(v, b2, node_limits_w={},
                               on_infeasible="floor")
        for a, b in zip(before.assignments, after.assignments):
            assert b.freq_hz <= a.freq_hz + 1e-9
        assert after.total_power_w <= b2 + 1e-9

    def test_shrink_to_floor_never_raises(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        v = views_for({0: [10.0, 10.0], 1: [0.075, 0.3]})
        before = sched.schedule(v, 350.0, node_limits_w={1: 120.0})
        floor = 4 * POWER4_TABLE.min_power_w
        after = sched.schedule(v, floor, node_limits_w={1: 120.0},
                               on_infeasible="floor")
        for a, b in zip(before.assignments, after.assignments):
            assert b.freq_hz <= a.freq_hz + 1e-9
        assert all(b.freq_hz == POWER4_TABLE.f_min_hz
                   for b in after.assignments)


class TestCoordinatorNodeLimits:
    def _cluster(self, seed=6):
        cluster = Cluster.homogeneous(
            2,
            machine_config=MachineConfig(
                num_cores=2,
                core_config=CoreConfig(latency_jitter_sigma=0.0),
            ),
            seed=seed,
        )
        cluster.assign_all(tiered_cluster_assignment(2, 2, web_nodes=0,
                                                     app_nodes=2))
        coordinator = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0),
            seed=seed + 1)
        sim = Simulation(cluster.machines)
        coordinator.attach(sim)
        return cluster, coordinator, sim

    def test_set_node_limit_confines_the_cut(self):
        cluster, coordinator, sim = self._cluster()
        sim.run_for(0.5)
        coordinator.set_node_limit(0, 120.0, sim.now_s)
        sim.run_for(0.5)
        assert cluster.node(0).cpu_power_w() <= 120.0
        assert cluster.node(1).cpu_power_w() > 200.0   # untouched CPU tier

    def test_lifting_the_limit_restores(self):
        cluster, coordinator, sim = self._cluster(seed=8)
        sim.run_for(0.5)
        coordinator.set_node_limit(0, 120.0, sim.now_s)
        sim.run_for(0.3)
        coordinator.set_node_limit(0, None, sim.now_s)
        sim.run_for(0.3)
        assert cluster.node(0).cpu_power_w() > 200.0


class TestClusterFailoverExperiment:
    def test_nested_beats_global_squeeze(self):
        r = run_experiment("cluster_failover", fast=True)
        assert r.scalars["nested_sick_node_w"] <= 100.0
        # The squeeze starves the healthy nodes; nested leaves them alone.
        assert r.scalars["nested_healthy_w"] > \
            2 * r.scalars["squeeze_healthy_w"]
        assert r.scalars["squeeze_norm_throughput"] < 1.0
