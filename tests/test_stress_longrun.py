"""Stress and long-horizon stability tests.

These guard against the failure classes analytic simulators accumulate
quietly: float drift over long runs, event-queue growth, degenerate
scheduling at scale, and periodic-task phase error.
"""

import pytest

from repro.core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
from repro.core.scheduler import FrequencyVoltageScheduler, ProcessorView
from repro.model.ipc import WorkloadSignature
from repro.power.table import POWER4_TABLE
from repro.sim.driver import Simulation
from repro.units import ghz
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.synthetic import two_phase_benchmark
from tests.conftest import make_machine
from tests.test_scheduler_vectorized import _reference_schedule


class TestLongHorizon:
    def test_sixty_seconds_of_daemon_stability(self):
        """A minute of simulated time: periodic chain keeps cadence,
        wall-time conservation holds, budget never breached."""
        machine = make_machine(1, seed=1)
        machine.assign(0, two_phase_benchmark(
            1.0, 0.2, include_init_exit=False).job(loop=True))
        daemon = FvsstDaemon(machine, DaemonConfig(
            power_limit_w=100.0, counter_noise_sigma=0.0,
            overhead=OverheadModel(enabled=False)), seed=2)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(60.0)

        samples = len(daemon.log.samples_of(0, 0))
        assert 5990 <= samples <= 6001          # 10 ms cadence held
        passes = len(daemon.log.schedules_of(0, 0))
        assert 598 <= passes <= 601             # 100 ms cadence held
        assert sum(machine.core(0).phase_time_s.values()) == \
            pytest.approx(60.0, rel=1e-9)
        assert machine.cpu_power_w() <= 100.0 + 1e-9
        # Energy ledger consistent with meter over the whole horizon.
        assert machine.ledger.energy_of("core0") <= 100.0 * 60.0 + 1e-6

    def test_event_queue_does_not_accumulate(self):
        machine = make_machine(1, seed=3)
        daemon = FvsstDaemon(machine, DaemonConfig(
            counter_noise_sigma=0.0,
            overhead=OverheadModel(enabled=False)), seed=4)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(30.0)
        # Only the self-rescheduling sampler remains pending.
        assert len(sim.events) <= 2

    def test_counter_monotonicity_over_long_run(self):
        machine = make_machine(2, seed=5)
        gen = WorkloadGenerator(6)
        for i, job in enumerate(gen.jobs(2)):
            machine.assign(i, job)
        sim = Simulation(machine)
        last = [0.0, 0.0]
        for _ in range(30):
            sim.run_for(1.0)
            for i, core in enumerate(machine.cores):
                assert core.counters.instructions >= last[i]
                last[i] = core.counters.instructions


class TestSchedulerScale:
    def _views(self, n: int) -> list[ProcessorView]:
        import numpy as np
        rng = np.random.default_rng(0)
        out = []
        for i in range(n):
            ratio = float(np.exp(rng.uniform(np.log(0.05), np.log(10))))
            out.append(ProcessorView(
                node_id=i // 8, proc_id=i % 8,
                signature=WorkloadSignature(
                    core_cpi=0.65,
                    mem_time_per_instr_s=0.65 / ratio / ghz(1.0)),
            ))
        return out

    def test_thousand_processor_pass(self):
        views = self._views(1000)
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        budget = 1000 * 60.0
        schedule = sched.schedule(views, power_limit_w=budget)
        assert len(schedule.assignments) == 1000
        assert schedule.total_power_w <= budget

    def test_two_pass_and_single_pass_agree_at_scale(self):
        """The heap step 2 against the literal rescanning Figure 3 loop."""
        views = self._views(300)
        budget = 300 * 55.0
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        expected, _, _, _ = _reference_schedule(sched, views, budget)
        assert sched.schedule(views, power_limit_w=budget) \
            .frequency_vector_hz() == [a[2] for a in expected]

    def test_deep_budget_walk_terminates(self):
        # Budget just above the floor forces ~15 reductions per processor.
        views = self._views(64)
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        schedule = sched.schedule(views,
                                  power_limit_w=64 * 9.0 + 5.0)
        assert schedule.total_power_w <= 64 * 9.0 + 5.0
        assert not schedule.infeasible


class TestManyNodeCluster:
    def test_sixteen_node_coordinated_cap(self):
        from repro.cluster.coordinator import (
            ClusterCoordinator,
            CoordinatorConfig,
        )
        from repro.sim.cluster import Cluster
        from repro.sim.machine import MachineConfig
        from repro.workloads.tiers import tiered_cluster_assignment

        nodes, procs = 16, 2
        cluster = Cluster.homogeneous(
            nodes, machine_config=MachineConfig(num_cores=procs), seed=7)
        cluster.assign_all(tiered_cluster_assignment(nodes, procs))
        budget = 0.6 * nodes * procs * 140.0
        coordinator = ClusterCoordinator(
            cluster, CoordinatorConfig(power_limit_w=budget,
                                       counter_noise_sigma=0.0), seed=8)
        sim = Simulation(cluster.machines)
        coordinator.attach(sim)
        sim.run_for(1.5)
        assert coordinator.last_schedule is not None
        assert coordinator.last_schedule.total_power_w <= budget
        assert cluster.cpu_power_w() <= budget + 1e-6
        assert len(coordinator.last_schedule.assignments) == nodes * procs
