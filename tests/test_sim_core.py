"""The simulated core: analytic execution, counters, residency, overhead."""

import math

import pytest

from repro.errors import UnitError
from repro.model.latency import POWER4_LATENCIES
from repro.sim.core import CoreConfig, SimulatedCore
from repro.sim.fleet import advance_machines
from repro.sim.machine import MachineConfig, SMPMachine
from repro.sim.idle import IdleStyle
from repro.units import ghz, mhz
from repro.workloads.job import Job, LoopMode
from repro.workloads.phase import Phase


def quiet_core(freq=ghz(1.0), **cfg) -> SimulatedCore:
    defaults = dict(latency_jitter_sigma=0.0)
    defaults.update(cfg)
    return SimulatedCore(0, initial_freq_hz=freq,
                         config=CoreConfig(**defaults), rng=0)


def cpu_phase(instr=1e9, alpha=2.0) -> Phase:
    return Phase(name="cpu", instructions=instr, alpha=alpha)


def mem_phase(instr=1e7) -> Phase:
    return Phase(name="mem", instructions=instr, alpha=2.0,
                 n_mem_per_instr=0.1)


class TestAnalyticExecution:
    def test_pure_cpu_throughput_exact(self):
        core = quiet_core()
        job = Job(name="j", phases=(cpu_phase(instr=2e9, alpha=2.0),))
        core.add_job(job)
        core.advance(0.0, 0.5)
        # alpha=2 at 1 GHz -> 2e9 instr/s; 0.5 s -> 1e9 instructions.
        assert job.instructions_retired == pytest.approx(1e9, rel=1e-9)

    def test_completion_time_matches_model(self):
        phase = mem_phase(instr=1e7)
        expected = 1e7 / phase.throughput(POWER4_LATENCIES, ghz(1.0))
        core = quiet_core()
        job = Job(name="j", phases=(phase,))
        core.add_job(job)
        core.advance(0.0, expected * 1.01)
        assert job.done
        assert job.elapsed_s() == pytest.approx(expected, rel=1e-6)

    def test_memory_bound_insensitive_to_frequency(self):
        # The same memory-bound work takes almost equal wall time at
        # 650 MHz and 1 GHz: saturation, end to end.
        times = {}
        for f in (mhz(650), ghz(1.0)):
            core = quiet_core(freq=f)
            phase = Phase(name="m", instructions=1e7, alpha=2.0,
                          n_mem_per_instr=0.12)
            job = Job(name="j", phases=(phase,))
            core.add_job(job)
            core.advance(0.0, 10.0)
            times[f] = job.elapsed_s()
        assert times[mhz(650)] == pytest.approx(times[ghz(1.0)], rel=0.06)

    def test_cpu_bound_scales_with_frequency(self):
        times = {}
        for f in (mhz(500), ghz(1.0)):
            core = quiet_core(freq=f)
            job = Job(name="j", phases=(cpu_phase(instr=1e8),))
            core.add_job(job)
            core.advance(0.0, 10.0)
            times[f] = job.elapsed_s()
        assert times[mhz(500)] == pytest.approx(2 * times[ghz(1.0)],
                                                rel=1e-6)

    def test_counters_reflect_phase_rates(self):
        # HALT idle so post-completion idling leaves counters untouched.
        core = quiet_core(idle_style=IdleStyle.HALT)
        phase = Phase(name="p", instructions=1e6, alpha=2.0,
                      n_l2_per_instr=0.01, n_mem_per_instr=0.001,
                      l1_stall_cycles_per_instr=0.2)
        core.add_job(Job(name="j", phases=(phase,)))
        core.advance(0.0, 10.0)
        assert core.counters.instructions == pytest.approx(1e6)
        assert core.counters.n_l2 == pytest.approx(1e4)
        assert core.counters.n_mem == pytest.approx(1e3)
        assert core.counters.l1_stall_cycles == pytest.approx(2e5)

    def test_cycles_equal_frequency_times_busy_time(self):
        core = quiet_core(freq=mhz(800))
        core.add_job(Job(name="j", phases=(cpu_phase(),)))
        core.advance(0.0, 0.25)
        assert core.counters.cycles == pytest.approx(mhz(800) * 0.25)


class TestPhaseBoundaries:
    def test_two_phases_execute_in_order(self):
        a = Phase(name="a", instructions=1e6, alpha=1.0)
        b = Phase(name="b", instructions=1e6, alpha=1.0)
        core = quiet_core()
        job = Job(name="j", phases=(a, b))
        core.add_job(job)
        core.advance(0.0, 0.0005)   # halfway through phase a
        assert job.phase_index == 0
        core.advance(0.0005, 0.001)
        assert job.phase_index == 1
        assert core.phase_time_s["a"] == pytest.approx(0.001)

    def test_looping_job_wraps(self):
        a = Phase(name="a", instructions=1e6, alpha=1.0)
        core = quiet_core()
        job = Job(name="j", phases=(a,), loop=LoopMode.LOOP)
        core.add_job(job)
        core.advance(0.0, 0.0035)
        assert job.iterations == 3
        assert not job.done


class TestIdleBehaviour:
    def test_hot_idle_accumulates_instructions(self):
        core = quiet_core()
        core.advance(0.0, 0.1)
        assert core.is_idle
        # IPC 1.3 at 1 GHz for 0.1 s.
        assert core.counters.instructions == pytest.approx(1.3e8, rel=1e-6)
        assert core.counters.halted_cycles == 0

    def test_halt_idle_accumulates_halted_cycles(self):
        core = quiet_core(idle_style=IdleStyle.HALT)
        core.advance(0.0, 0.1)
        assert core.counters.instructions == 0
        assert core.counters.halted_cycles == pytest.approx(1e8)

    def test_idle_to_busy_transition(self):
        core = quiet_core()
        core.advance(0.0, 0.05)
        job = Job(name="j", phases=(cpu_phase(instr=1e6),))
        core.add_job(job)
        assert not core.is_idle
        core.advance(0.05, 0.05)
        assert job.done
        assert core.is_idle


class TestMultiprogramming:
    def test_two_jobs_share_the_core_fairly(self):
        a = Job(name="a", phases=(cpu_phase(instr=1e9),))
        b = Job(name="b", phases=(cpu_phase(instr=1e9),))
        core = quiet_core()
        core.add_job(a)
        core.add_job(b)
        core.advance(0.0, 1.0)
        # Equal characteristics: progress within one quantum of equal.
        assert a.instructions_retired == pytest.approx(
            b.instructions_retired, rel=0.05
        )
        total = a.instructions_retired + b.instructions_retired
        assert total == pytest.approx(2e9, rel=1e-6)  # alpha=2 @ 1 GHz, 1 s


class TestFrequencyControl:
    def test_set_frequency_changes_throughput(self):
        core = quiet_core()
        job = Job(name="j", phases=(cpu_phase(instr=1e10),))
        core.add_job(job)
        core.advance(0.0, 0.1)
        at_full = job.instructions_retired
        core.set_frequency(mhz(500), 0.1)
        core.advance(0.1, 0.1)
        at_half = job.instructions_retired - at_full
        assert at_half == pytest.approx(at_full / 2, rel=1e-6)

    def test_settling_splits_the_slice(self):
        core = quiet_core(settling_time_s=0.05)
        job = Job(name="j", phases=(cpu_phase(instr=1e10),))
        core.add_job(job)
        core.set_frequency(mhz(500), 0.0)
        core.advance(0.0, 0.1)
        # First 0.05 s at 1 GHz (2e9/s), second 0.05 s at 500 MHz (1e9/s).
        assert job.instructions_retired == pytest.approx(
            0.05 * 2e9 + 0.05 * 1e9, rel=1e-6
        )
        assert core.freq_time_s[ghz(1.0)] == pytest.approx(0.05)
        assert core.freq_time_s[mhz(500)] == pytest.approx(0.05)


class TestOverheadStealing:
    def test_debt_front_runs_job_execution(self):
        core = quiet_core()
        job = Job(name="j", phases=(cpu_phase(instr=1e10),))
        core.add_job(job)
        core.steal_time(0.01)
        core.advance(0.0, 0.1)
        # 10 ms of the 100 ms went to the daemon phase.
        assert core.overhead_executed_s == pytest.approx(0.01)
        assert job.instructions_retired == pytest.approx(0.09 * 2e9,
                                                         rel=1e-6)

    def test_offline_core_does_nothing(self):
        core = quiet_core()
        job = Job(name="j", phases=(cpu_phase(),)
                  )
        core.add_job(job)
        core.offline = True
        core.advance(0.0, 1.0)
        assert job.instructions_retired == 0
        assert core.counters.cycles == 0
        assert core.phase_time_s.get("__offline__") == pytest.approx(1.0)


class TestPowerScale:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_invalid_scale_raises_at_assignment(self, bad):
        # Resident in fleet columns or not, a scale the energy ledger
        # would refuse fails where it is set, and the old one stays.
        machine = SMPMachine(MachineConfig(num_cores=1), seed=0)
        advance_machines([machine], 0.01)
        for core in (quiet_core(), machine.cores[0]):
            with pytest.raises(UnitError):
                core.power_scale = bad
            assert core.power_scale == 1.0
        advance_machines([machine], 0.01)
        assert math.isfinite(machine.ledger.total_energy_j)

    @pytest.mark.parametrize("good", [0.0, 1.25])
    def test_valid_scale_accepted(self, good):
        core = quiet_core()
        core.power_scale = good
        assert core.power_scale == good
