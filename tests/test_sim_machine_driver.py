"""SMP machine, power meter and simulation driver."""

import pytest

from repro.errors import SimulationError
from repro.power.supply import SupplyBank
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.idle import IdleStyle
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import ghz, mhz
from repro.workloads.job import Job
from repro.workloads.phase import Phase
from tests.conftest import make_machine


def cpu_job(name="j", instr=1e9) -> Job:
    return Job(name=name, phases=(Phase(name="p", instructions=instr,
                                        alpha=2.0),))


class TestMachineConstruction:
    def test_default_is_the_p630(self):
        m = SMPMachine()
        assert m.num_cores == 4
        assert m.table.f_max_hz == ghz(1.0)
        assert m.config.non_cpu_power_w == pytest.approx(186.0)

    def test_cores_start_at_f_max(self):
        m = make_machine(2)
        assert m.frequency_vector_hz() == [ghz(1.0), ghz(1.0)]

    def test_initial_frequency_override(self):
        m = SMPMachine(MachineConfig(num_cores=1, initial_freq_hz=mhz(650)))
        assert m.frequency_vector_hz() == [mhz(650)]

    def test_initial_frequency_must_be_operating_point(self):
        with pytest.raises(SimulationError):
            MachineConfig(num_cores=1, initial_freq_hz=mhz(640))

    def test_core_bounds_checked(self):
        m = make_machine(2)
        with pytest.raises(SimulationError):
            m.core(2)

    def test_zero_cores_rejected(self):
        with pytest.raises(SimulationError):
            MachineConfig(num_cores=0)


class TestPowerViews:
    def test_full_speed_draw_matches_section2(self):
        m = make_machine(4)
        assert m.cpu_power_w() == pytest.approx(4 * 140.0)
        assert m.system_power_w() == pytest.approx(746.0)

    def test_draw_follows_frequency(self):
        m = make_machine(1)
        m.core(0).set_frequency(mhz(650), 0.0)
        assert m.cpu_power_w() == pytest.approx(57.0)

    def test_hot_idle_draws_full_power(self):
        m = make_machine(1)   # idle, HOT_LOOP by default
        assert m.cpu_power_w() == pytest.approx(140.0)

    def test_halting_idle_draws_fraction(self):
        config = MachineConfig(
            num_cores=1,
            core_config=CoreConfig(latency_jitter_sigma=0.0,
                                   idle_style=IdleStyle.HALT),
        )
        m = SMPMachine(config)
        assert m.cpu_power_w() == pytest.approx(
            140.0 * m.meter.halted_idle_fraction
        )

    def test_offline_core_draws_nothing(self):
        m = make_machine(2)
        m.core(1).offline = True
        assert m.cpu_power_w() == pytest.approx(140.0)

    def test_meter_noise_only_affects_measurement(self):
        m = SMPMachine(MachineConfig(num_cores=1, meter_noise_sigma=0.05),
                       seed=1)
        true = m.system_power_w()
        readings = {m.measure_power_w() for _ in range(8)}
        assert len(readings) > 1          # noisy
        assert m.system_power_w() == true  # truth unchanged


class TestMachineAdvance:
    def test_energy_integrates_true_power(self):
        m = make_machine(1)
        m.advance(2.0)
        assert m.ledger.energy_of("core0") == pytest.approx(280.0)
        assert m.ledger.energy_of("non_cpu") == pytest.approx(372.0)

    def test_power_sampled_at_interval_start(self):
        m = make_machine(1)
        m.advance(1.0)
        m.core(0).set_frequency(mhz(500), m.now_s)
        m.advance(1.0)
        assert m.ledger.energy_of("core0") == pytest.approx(140.0 + 35.0)

    def test_supply_bank_observed(self):
        bank = SupplyBank.example_p630(raise_on_cascade=False)
        m = SMPMachine(MachineConfig(num_cores=4), supply_bank=bank)
        bank.fail_supply(0)
        m.advance(0.5)   # overload episode starts
        m.advance(1.0)   # exceeds the 1 s deadline
        assert bank.cascade_count == 1


class TestSimulationDriver:
    def test_machines_advance_with_the_clock(self):
        m = make_machine(1)
        sim = Simulation(m)
        sim.run_for(1.5)
        assert m.now_s == pytest.approx(1.5)
        assert sim.now_s == pytest.approx(1.5)

    def test_one_off_event_fires_at_exact_time(self):
        m = make_machine(1)
        sim = Simulation(m)
        times = []
        sim.at(0.3, lambda t: times.append((t, m.now_s)))
        sim.run_for(1.0)
        assert times == [(0.3, pytest.approx(0.3))]

    def test_event_changes_take_effect_mid_run(self):
        m = make_machine(1)
        job = cpu_job(instr=1e10)
        m.assign(0, job)
        sim = Simulation(m)
        sim.at(0.5, lambda t: m.core(0).set_frequency(mhz(500), t))
        sim.run_for(1.0)
        # 0.5 s at 2e9/s plus 0.5 s at 1e9/s.
        assert job.instructions_retired == pytest.approx(1.5e9, rel=1e-6)

    def test_periodic_task_fires_on_schedule(self):
        m = make_machine(1)
        sim = Simulation(m)
        times = []
        sim.every(0.25, times.append)
        sim.run_for(1.0)
        assert times == [pytest.approx(v) for v in (0.25, 0.5, 0.75, 1.0)]

    def test_periodic_cancel(self):
        m = make_machine(1)
        sim = Simulation(m)
        times = []
        task = sim.every(0.25, times.append)
        sim.run_for(0.5)
        task.cancel()
        sim.run_for(0.5)
        assert len(times) == 2

    def test_periodic_stopiteration_ends_chain(self):
        m = make_machine(1)
        sim = Simulation(m)
        times = []

        def cb(t):
            times.append(t)
            if len(times) == 2:
                raise StopIteration

        sim.every(0.1, cb)
        sim.run_for(1.0)
        assert len(times) == 2

    def test_past_scheduling_rejected(self):
        sim = Simulation(make_machine(1))
        sim.run_for(1.0)
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda t: None)

    def test_run_backwards_rejected(self):
        sim = Simulation(make_machine(1))
        sim.run_for(1.0)
        with pytest.raises(SimulationError):
            sim.run_until(0.5)

    def test_multiple_machines_share_the_clock(self):
        a, b = make_machine(1, seed=1), make_machine(1, seed=2)
        sim = Simulation([a, b])
        sim.run_for(0.7)
        assert a.now_s == b.now_s == pytest.approx(0.7)

    def test_needs_at_least_one_machine(self):
        with pytest.raises(SimulationError):
            Simulation([])
