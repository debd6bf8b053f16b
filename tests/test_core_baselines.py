"""Baseline governors."""

import pytest

from repro.core.baselines import (
    NoManagementGovernor,
    PowerDownGovernor,
    UniformScalingGovernor,
    UtilizationGovernor,
    uniform_cap_frequency,
)
from repro.errors import SchedulingError
from repro.power.table import POWER4_TABLE
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.idle import IdleStyle
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import ghz, mhz
from repro.workloads.profiles import profile_by_name


def machine(num_cores=4, idle_style=IdleStyle.HOT_LOOP) -> SMPMachine:
    return SMPMachine(MachineConfig(
        num_cores=num_cores,
        core_config=CoreConfig(latency_jitter_sigma=0.0,
                               idle_style=idle_style),
    ), seed=0)


class TestUniformCapFrequency:
    def test_divides_budget_evenly(self):
        assert uniform_cap_frequency(POWER4_TABLE, 4, 294.0) == mhz(700)
        # 4 x 66 W = 264 <= 294; 4 x 75 = 300 > 294.

    def test_unlimited(self):
        assert uniform_cap_frequency(POWER4_TABLE, 4, None) == ghz(1.0)

    def test_floor_fallback(self):
        assert uniform_cap_frequency(POWER4_TABLE, 4, 20.0) == mhz(250)

    def test_zero_procs_rejected(self):
        with pytest.raises(SchedulingError):
            uniform_cap_frequency(POWER4_TABLE, 0, 100.0)


class TestNoManagement:
    def test_everything_at_fmax_and_unresponsive(self):
        m = machine()
        g = NoManagementGovernor(m)
        sim = Simulation(m)
        g.attach(sim)
        g.set_power_limit(100.0, 0.0)
        assert m.frequency_vector_hz() == [ghz(1.0)] * 4
        assert m.cpu_power_w() == pytest.approx(560.0)


class TestUniformScaling:
    def test_applies_shared_frequency(self):
        m = machine()
        g = UniformScalingGovernor(m, power_limit_w=294.0)
        sim = Simulation(m)
        g.attach(sim)
        assert m.frequency_vector_hz() == [mhz(700)] * 4
        assert m.cpu_power_w() <= 294.0

    def test_limit_change_reapplies(self):
        m = machine()
        g = UniformScalingGovernor(m, power_limit_w=None)
        sim = Simulation(m)
        g.attach(sim)
        g.set_power_limit(140.0, 0.0)
        assert m.frequency_vector_hz() == [mhz(500)] * 4


class TestPowerDown:
    def test_keeps_k_cores_at_fmax(self):
        m = machine()
        g = PowerDownGovernor(m, power_limit_w=294.0)
        sim = Simulation(m)
        g.attach(sim)
        assert g.online_count == 2      # 2 x 140 = 280 <= 294
        assert m.cpu_power_w() == pytest.approx(280.0)
        assert m.core(3).offline and m.core(2).offline

    def test_stranded_work_stalls(self):
        m = machine()
        job = profile_by_name("gzip").job(loop=True)
        m.assign(3, job)
        g = PowerDownGovernor(m, power_limit_w=294.0)
        sim = Simulation(m)
        g.attach(sim)
        sim.run_for(0.5)
        assert job.instructions_retired == 0.0   # migration impossible

    def test_restore_brings_cores_back(self):
        m = machine()
        g = PowerDownGovernor(m, power_limit_w=140.0)
        sim = Simulation(m)
        g.attach(sim)
        assert g.online_count == 1
        g.set_power_limit(None, 0.0)
        assert g.online_count == 4


class TestUtilization:
    def test_hot_idle_driven_to_cap(self):
        # The pathology: a hot-idle core reads 100% utilisation.
        m = machine()
        g = UtilizationGovernor(m, power_limit_w=294.0)
        sim = Simulation(m)
        g.attach(sim)
        sim.run_for(1.0)
        cap = uniform_cap_frequency(POWER4_TABLE, 4, 294.0)
        assert m.frequency_vector_hz() == [cap] * 4

    def test_halting_idle_stepped_down(self):
        m = machine(num_cores=1, idle_style=IdleStyle.HALT)
        g = UtilizationGovernor(m, power_limit_w=None)
        sim = Simulation(m)
        g.attach(sim)
        sim.run_for(2.0)
        assert m.core(0).frequency_setting_hz == mhz(250)

    def test_busy_core_stepped_up(self):
        m = machine(num_cores=1, idle_style=IdleStyle.HALT)
        m.core(0).set_frequency(mhz(250), 0.0)
        m.assign(0, profile_by_name("gzip").job(loop=True))
        g = UtilizationGovernor(m, power_limit_w=None)
        sim = Simulation(m)
        g.attach(sim)
        sim.run_for(2.0)
        assert m.core(0).frequency_setting_hz > mhz(700)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(SchedulingError):
            UtilizationGovernor(machine(), up_threshold=0.4,
                                down_threshold=0.5)
