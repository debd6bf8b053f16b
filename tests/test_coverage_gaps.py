"""Targeted tests for paths the main suites do not reach."""

import pytest

from repro.core.governor import Governor
from repro.errors import ExperimentError, SchedulingError
from repro.power.supply import SupplyBank
from repro.scenario import Scenario, make_governor
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import mhz
from repro.workloads.profiles import profile_by_name
from tests.conftest import make_machine


class TestGovernorBase:
    def test_sim_property_before_attach_raises(self):
        class Dummy(Governor):
            def set_power_limit(self, limit_w, now_s):
                pass

        g = Dummy(make_machine(1))
        with pytest.raises(SchedulingError):
            _ = g.sim

    def test_double_attach_rejected_at_base(self):
        class Dummy(Governor):
            def set_power_limit(self, limit_w, now_s):
                pass

        m = make_machine(1)
        g = Dummy(m)
        sim = Simulation(m)
        g.attach(sim)
        with pytest.raises(SchedulingError):
            g.attach(sim)


class TestExperimentCommon:
    """The one-machine protocol the experiments share: a named governor
    and :meth:`Scenario.run_to_completion`."""

    def test_unknown_governor_rejected(self):
        with pytest.raises(ExperimentError, match="unknown governor"):
            make_governor("ondemand", make_machine(1), power_limit_w=None)

    def test_completed_job_rejected(self):
        job = profile_by_name("gzip").job(body_repeats=1)
        Scenario(num_cores=1, seed=0).with_job(0, job).run_to_completion()
        with pytest.raises(ExperimentError, match="already completed"):
            Scenario(num_cores=1, seed=0).with_job(0, job).run_to_completion()

    def test_timeout_guard(self):
        job = profile_by_name("health").job(body_repeats=2)
        with pytest.raises(ExperimentError, match="did not finish"):
            Scenario(num_cores=1, seed=0).with_job(0, job).run_to_completion(
                max_duration_s=0.5)

    def test_settle_runs_governor_before_job(self):
        run = (Scenario(num_cores=1, seed=1)
               .with_job(0, profile_by_name("gzip").job(body_repeats=1))
               .with_governor("fvsst")
               .settle(0.3)
               .run_to_completion())
        assert run.jobs[0][1].started_at_s >= 0.3
        assert run.start_s == pytest.approx(0.3)
        assert run.core_energy_j(0) / run.elapsed_s > 0


class TestScenarioWithSupplyBank:
    def test_bank_observed_through_scenario(self):
        bank = SupplyBank.example_p630(raise_on_cascade=False)
        scenario = Scenario(num_cores=4, seed=1, supply_bank=bank)
        scenario.with_job(0, profile_by_name("gzip").job(loop=True))
        scenario.with_governor("none")
        scenario.at(0.5, lambda res, t: bank.fail_supply(0))
        scenario.run(3.0)
        assert bank.cascade_count >= 1   # unmanaged hot machine cascades

    def test_config_conflict_rejected(self):
        from repro.errors import ConfigError
        from repro.sim.core import CoreConfig
        with pytest.raises(ConfigError):
            Scenario(machine_config=MachineConfig(num_cores=1),
                     core_config=CoreConfig())


class TestPeriodicTaskIntrospection:
    def test_next_time_advances_and_cancels(self):
        m = make_machine(1)
        sim = Simulation(m)
        task = sim.every(0.2, lambda t: None)
        assert task.next_time_s == pytest.approx(0.2)
        sim.run_for(0.3)
        assert task.next_time_s == pytest.approx(0.4)
        task.cancel()
        assert task.next_time_s is None

    def test_zero_offset_fires_immediately(self):
        m = make_machine(1)
        sim = Simulation(m)
        fired = []
        sim.every(0.5, fired.append, start_offset_s=0.0)
        sim.run_for(0.0)
        assert fired == [0.0]


class TestClusterIdleDetection:
    def test_coordinator_pins_idle_nodes(self):
        from repro.cluster.coordinator import (
            ClusterCoordinator,
            CoordinatorConfig,
        )
        from repro.sim.cluster import Cluster
        from repro.sim.core import CoreConfig

        cluster = Cluster.homogeneous(
            2,
            machine_config=MachineConfig(
                num_cores=1,
                core_config=CoreConfig(latency_jitter_sigma=0.0),
            ),
            seed=4,
        )
        cluster.nodes[0].assign(0, profile_by_name("gzip").job(loop=True))
        coordinator = ClusterCoordinator(
            cluster,
            CoordinatorConfig(counter_noise_sigma=0.0, idle_detection=True),
            seed=5,
        )
        sim = Simulation(cluster.machines)
        coordinator.attach(sim)
        sim.run_for(1.0)
        busy = cluster.nodes[0].machine.frequency_vector_hz()[0]
        idle = cluster.nodes[1].machine.frequency_vector_hz()[0]
        assert idle == mhz(250)
        assert busy >= mhz(900)


class TestMachineEdgeCases:
    def test_zero_advance_is_noop(self):
        m = make_machine(1)
        m.advance(0.0)
        assert m.now_s == 0.0

    def test_negative_advance_rejected(self):
        m = make_machine(1)
        with pytest.raises(Exception):
            m.advance(-0.1)

    def test_measure_cpu_power_matches_truth_without_noise(self):
        m = make_machine(2)
        assert m.measure_cpu_power_w() == pytest.approx(m.cpu_power_w())

    def test_supply_observation_chunking(self):
        bank = SupplyBank.example_p630(raise_on_cascade=False,
                                       cascade_deadline_s=0.5)
        m = SMPMachine(MachineConfig(num_cores=4), supply_bank=bank, seed=0)
        bank.fail_supply(0)
        # One long advance must still trip the 0.5 s deadline internally.
        m.advance(2.0)
        assert bank.cascade_count == 1


class TestMultithreadDaemonStructuredOverheadOff:
    def test_disabled_mt_overhead_is_free(self):
        from repro.core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
        m = make_machine(2)
        m.assign(0, profile_by_name("mcf").job(loop=True))
        d = FvsstDaemon(
            m, DaemonConfig(counter_noise_sigma=0.0,
                            overhead=OverheadModel(enabled=False,
                                                   per_core=True)),
            seed=1)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        assert all(c.overhead_executed_s == 0.0 for c in m.cores)
