"""The fvsst daemon end to end on the simulated machine."""

import pytest

from repro.core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
from repro.errors import SchedulingError, UnitError
from repro.sim.core import CoreConfig
from repro.sim.counters import CounterSample
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import ghz, mhz
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import two_phase_benchmark


def quiet_machine(num_cores=1, **core_kwargs) -> SMPMachine:
    cfg = MachineConfig(
        num_cores=num_cores,
        core_config=CoreConfig(latency_jitter_sigma=0.0, **core_kwargs),
    )
    return SMPMachine(cfg, seed=0)


def quiet_daemon(machine, **cfg_kwargs) -> FvsstDaemon:
    defaults = dict(counter_noise_sigma=0.0,
                    overhead=OverheadModel(enabled=False))
    defaults.update(cfg_kwargs)
    return FvsstDaemon(machine, DaemonConfig(**defaults), seed=1)


class TestSchedulingLoop:
    def test_first_decision_after_one_period(self):
        m = quiet_machine()
        m.assign(0, profile_by_name("mcf").job(loop=True))
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(0.099)
        assert d.last_schedule is None
        sim.run_for(0.002)
        assert d.last_schedule is not None

    def test_memory_bound_work_driven_to_saturation(self):
        m = quiet_machine()
        m.assign(0, profile_by_name("mcf").job(loop=True))
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(3.0)
        res = d.log.frequency_residency(0, 0)
        modal = max(res, key=res.get)
        assert modal == mhz(650)

    def test_sampling_cadence(self):
        m = quiet_machine()
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        # Slight overshoot absorbs float drift in the periodic chain.
        sim.run_for(1.005)
        assert len(d.log.samples_of(0, 0)) == 100   # t = 10 ms
        assert len(d.log.schedules_of(0, 0)) == 10  # T = 100 ms

    def test_t_equals_n_times_t(self):
        cfg = DaemonConfig(sample_period_s=0.02, schedule_every=5)
        assert cfg.schedule_period_s == pytest.approx(0.1)

    def test_budget_respected_in_steady_state(self):
        m = quiet_machine(num_cores=4)
        for i, app in enumerate(("gzip", "gap", "mcf", "health")):
            m.assign(i, profile_by_name(app).job(loop=True))
        d = quiet_daemon(m, power_limit_w=294.0)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(2.0)
        assert m.cpu_power_w() <= 294.0 + 1e-9
        assert d.last_schedule.total_power_w <= 294.0

    def test_frequencies_are_operating_points(self, table):
        m = quiet_machine()
        m.assign(0, two_phase_benchmark(1.0, 0.2).job(loop=True))
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        for entry in d.log.schedules_of(0, 0):
            assert entry.freq_hz in table


class TestPowerLimitTrigger:
    def test_immediate_rescheduling(self):
        m = quiet_machine(num_cores=4)
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(0.55)   # mid-window
        before = m.cpu_power_w()
        d.set_power_limit(294.0, sim.now_s)
        assert m.cpu_power_w() <= 294.0
        assert before > 294.0

    def test_limit_change_checked_at_the_boundary(self):
        m = quiet_machine()
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        for limit_w, now_s in ((75.0, -0.1), (0.0, 0.0), (-5.0, 0.0)):
            with pytest.raises(UnitError):
                d.set_power_limit(limit_w, now_s)
        # A rejected change leaves the daemon as it was.
        assert d.power_limit_w is None and not d.log.schedule_entries
        d.set_power_limit(75.0, 0.0)
        assert d.power_limit_w == 75.0 and len(d.log.schedule_entries) == 1

    def test_limit_lift_restores_eps_frequencies(self):
        m = quiet_machine()
        m.assign(0, profile_by_name("gzip").job(loop=True))
        d = quiet_daemon(m, power_limit_w=35.0)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        capped = m.core(0).frequency_setting_hz
        d.set_power_limit(None, sim.now_s)
        sim.run_for(0.5)
        lifted = m.core(0).frequency_setting_hz
        assert capped <= mhz(500)
        assert lifted >= mhz(900)

    def test_infeasible_budget_floors_and_flags(self):
        m = quiet_machine(num_cores=4)
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        d.set_power_limit(20.0, 0.0)   # below the 4 x 9 W floor
        assert d.last_schedule.infeasible
        assert m.frequency_vector_hz() == [mhz(250)] * 4


class TestIdleDetection:
    def test_disabled_by_default_idle_runs_fast(self):
        m = quiet_machine(num_cores=2)
        m.assign(0, profile_by_name("gzip").job(loop=True))
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        # Hot idle looks CPU-bound: scheduled at the top of the ladder.
        assert m.core(1).frequency_setting_hz >= mhz(950)

    def test_enabled_pins_idle_to_floor(self):
        m = quiet_machine(num_cores=2)
        m.assign(0, profile_by_name("gzip").job(loop=True))
        d = quiet_daemon(m, idle_detection=True)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        assert m.core(1).frequency_setting_hz == mhz(250)
        assert m.core(0).frequency_setting_hz >= mhz(900)

    def test_idle_exit_restores_scheduling(self):
        m = quiet_machine(num_cores=1)
        d = quiet_daemon(m, idle_detection=True)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(0.5)
        assert m.core(0).frequency_setting_hz == mhz(250)
        m.assign(0, profile_by_name("gzip").job(loop=True))
        sim.run_for(0.5)
        assert m.core(0).frequency_setting_hz >= mhz(900)


class TestOverheadModel:
    def test_overhead_steals_time_from_host_core(self):
        m = quiet_machine()
        m.assign(0, profile_by_name("gzip").job(loop=True))
        d = quiet_daemon(m, overhead=OverheadModel(), daemon_core=0)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        assert m.core(0).overhead_executed_s > 0
        # Bounded: well under 3% of wall time (Figure 4's ceiling).
        assert m.core(0).overhead_executed_s < 0.03

    def test_disabled_overhead_steals_nothing(self):
        m = quiet_machine()
        d = quiet_daemon(m)   # overhead disabled by default fixture
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        assert m.core(0).overhead_executed_s == 0.0


class TestValidation:
    def test_daemon_core_bounds(self):
        m = quiet_machine()
        with pytest.raises(SchedulingError):
            FvsstDaemon(m, DaemonConfig(daemon_core=5))

    def test_double_attach_rejected(self):
        m = quiet_machine()
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        with pytest.raises(SchedulingError):
            d.attach(sim)

    def test_bad_schedule_every(self):
        with pytest.raises(SchedulingError):
            DaemonConfig(schedule_every=0)

    def test_with_config_derives_fresh_daemon(self):
        m = quiet_machine()
        d = quiet_daemon(m)
        d2 = d.with_config(epsilon=0.1)
        assert d2.config.epsilon == 0.1
        assert d2 is not d and d2.machine is m


class TestHaltedCycleIdleInference:
    """Section 5: halting hardware needs no idle indicator."""

    def _halting_machine(self):
        from repro.sim.idle import IdleStyle
        return quiet_machine(num_cores=2, idle_style=IdleStyle.HALT)

    def test_halted_core_inferred_idle_and_floored(self):
        m = self._halting_machine()
        m.assign(0, profile_by_name("gzip").job(loop=True))
        d = quiet_daemon(m, halted_idle_threshold=0.9)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        # Core 1 halts its whole window: inferred idle, pinned at floor
        # without any explicit signal.
        assert m.core(1).frequency_setting_hz == mhz(250)
        assert m.core(0).frequency_setting_hz >= mhz(900)

    def test_disabled_by_default(self):
        m = self._halting_machine()
        d = quiet_daemon(m)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(0.5)
        # Without the threshold the halted core has no signature and is
        # conservatively kept at f_max.
        assert m.core(1).frequency_setting_hz == ghz(1.0)

    def test_busy_core_never_misclassified(self):
        m = self._halting_machine()
        m.assign(0, profile_by_name("mcf").job(loop=True))
        d = quiet_daemon(m, halted_idle_threshold=0.9)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        # The busy core runs flat out: halted fraction 0, scheduled at its
        # saturation rung, not the floor.
        assert m.core(0).frequency_setting_hz == mhz(650)

    def test_threshold_validation(self):
        with pytest.raises(SchedulingError):
            DaemonConfig(halted_idle_threshold=0.0)
        with pytest.raises(SchedulingError):
            DaemonConfig(halted_idle_threshold=1.5)


class TestMeasuredFeedback:
    """Section 5's measurement-driven compliance loop."""

    def _leaky_machine(self, scale=1.3, seed=0):
        m = quiet_machine(num_cores=2)
        for core in m.cores:
            core.power_scale = scale
        m.assign(0, profile_by_name("gzip").job(loop=True))
        m.assign(1, profile_by_name("gap").job(loop=True))
        return m

    def test_without_feedback_leaky_parts_breach(self):
        m = self._leaky_machine()
        d = quiet_daemon(m, power_limit_w=200.0)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(2.0)
        # Believed total fits; measured draw does not.
        assert d.last_schedule.total_power_w <= 200.0
        assert m.cpu_power_w() > 200.0

    def test_feedback_converges_under_the_limit(self):
        m = self._leaky_machine()
        d = quiet_daemon(m, power_limit_w=200.0, measured_feedback=True)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(3.0)
        assert m.cpu_power_w() <= 200.0 + 1e-9

    def test_feedback_relaxes_when_headroom_appears(self):
        m = self._leaky_machine()
        d = quiet_daemon(m, power_limit_w=200.0, measured_feedback=True)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(3.0)
        tightened = d._planning_limit_w
        assert tightened < 200.0
        # Lift the variation: the loop should creep back toward the limit.
        for core in m.cores:
            core.power_scale = 0.7
        sim.run_for(3.0)
        assert d._planning_limit_w > tightened

    def test_limit_change_resets_the_loop(self):
        m = self._leaky_machine()
        d = quiet_daemon(m, power_limit_w=200.0, measured_feedback=True)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(2.0)
        d.set_power_limit(300.0, sim.now_s)
        # The internal planning limit restarted at the new hard limit and
        # must not exceed it.
        assert d._planning_limit_w is None or d._planning_limit_w <= 300.0


class TestWindowAggregate:
    def test_window_adds_left_to_right(self):
        """The sampling window aggregates with plain left-to-right adds on
        every Python: a compensated ``sum`` (3.12) would return 1.0."""
        d = quiet_daemon(quiet_machine())
        fields = ("interval_s", "instructions", "cycles", "n_l2", "n_l3",
                  "n_mem", "l1_stall_cycles", "halted_cycles")
        d._windows[0] = [
            CounterSample(time_s=0.01 * (k + 1), **dict.fromkeys(fields, v))
            for k, v in enumerate([1e16, 1.0, -1e16])]
        aggregate = d._aggregate_window(0, 0.03)
        assert [getattr(aggregate, f) for f in fields] == [0.0] * len(fields)
