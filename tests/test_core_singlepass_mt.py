"""The single-pass scheduler on the paper's cases, and the daemon with
Section 9's per-processor threads (``OverheadModel.per_core``)."""

import pytest

from repro.core.daemon import (
    PER_CORE_OVERHEAD,
    DaemonConfig,
    FvsstDaemon,
    OverheadModel,
)
from repro.core.scheduler import FrequencyVoltageScheduler, ProcessorView
from repro.errors import InfeasibleBudgetError
from repro.model.ipc import WorkloadSignature
from repro.power.table import POWER4_TABLE
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import ghz, mhz
from repro.workloads.profiles import profile_by_name

def sig(ratio: float) -> WorkloadSignature:
    return WorkloadSignature(core_cpi=0.65,
                             mem_time_per_instr_s=0.65 / ratio / ghz(1.0))


def views(ratio_list, idle_mask=()):
    return [
        ProcessorView(node_id=0, proc_id=i, signature=sig(r),
                      idle_signaled=i in idle_mask)
        for i, r in enumerate(ratio_list)
    ]


class TestSinglePassEquivalence:
    """The heap (single-pass) step 2 on the paper's cases; its equality
    with the literal Figure 3 loops is pinned in
    tests/test_scheduler_vectorized.py."""

    def test_infeasible_behaviour_matches(self):
        one = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        v = views([10.0] * 4)
        with pytest.raises(InfeasibleBudgetError):
            one.schedule(v, power_limit_w=20.0, on_infeasible="raise")
        floored = one.schedule(v, power_limit_w=20.0)
        assert floored.infeasible
        assert floored.frequency_vector_hz() == [mhz(250)] * 4

    def test_worked_example_via_single_pass(self):
        from repro.power.table import WORKED_EXAMPLE_TABLE
        one = FrequencyVoltageScheduler(WORKED_EXAMPLE_TABLE, epsilon=0.03)
        v = views([0.45, 0.07, 0.12, 0.12])
        s = one.schedule(v, power_limit_w=294.0, on_infeasible="raise")
        assert s.frequency_vector_hz() == [ghz(0.9), ghz(0.6), ghz(0.7),
                                           ghz(0.7)]
        assert s.total_power_w == pytest.approx(289.0)


class TestMultithreadedDaemon:
    def _machine(self, seed=0) -> SMPMachine:
        m = SMPMachine(MachineConfig(
            num_cores=4,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ), seed=seed)
        m.assign(0, profile_by_name("gzip").job(loop=True))
        m.assign(1, profile_by_name("mcf").job(loop=True))
        return m

    def test_schedules_like_the_single_threaded_daemon(self):
        def freq_vector(per_core, seed):
            m = self._machine(seed)
            config = DaemonConfig(
                counter_noise_sigma=0.0,
                overhead=OverheadModel(enabled=False, per_core=per_core))
            d = FvsstDaemon(m, config, seed=seed + 1)
            sim = Simulation(m)
            d.attach(sim)
            sim.run_for(1.0)
            return m.frequency_vector_hz()

        assert freq_vector(False, 3) == freq_vector(True, 3)

    def _stolen_per_core(self, daemon) -> list[float]:
        sim = Simulation(daemon.machine)
        daemon.attach(sim)
        sim.run_for(1.0)
        return [c.overhead_executed_s for c in daemon.machine.cores]

    def test_overhead_distributed_across_cores(self):
        m = self._machine(4)
        stolen = self._stolen_per_core(FvsstDaemon(
            m, DaemonConfig(counter_noise_sigma=0.0, daemon_core=0,
                            overhead=PER_CORE_OVERHEAD),
            seed=5))
        # Every core pays for its own collector thread.
        assert all(s > 0 for s in stolen)
        # And no single core pays for everyone (the single-threaded
        # pathology): core 0 carries only the scheduling calculation on
        # top of its own collector (~1.5 ms vs ~0.6 ms over one second).
        assert stolen[0] < 5 * stolen[3]

    def test_with_config_keeps_per_core_charging(self):
        m = self._machine(4)
        d = FvsstDaemon(
            m, DaemonConfig(counter_noise_sigma=0.0, daemon_core=0,
                            overhead=PER_CORE_OVERHEAD),
            seed=5)
        swept = d.with_config(epsilon=0.08)
        assert swept.config.overhead is PER_CORE_OVERHEAD
        stolen = self._stolen_per_core(swept)
        assert all(s > 0 for s in stolen)
        assert stolen[0] < 5 * stolen[3]

    def test_single_threaded_concentrates_overhead(self):
        m = self._machine(6)
        d = FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.0,
                                        daemon_core=2), seed=7)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        stolen = [c.overhead_executed_s for c in m.cores]
        assert stolen[2] > 0
        assert stolen[0] == stolen[1] == stolen[3] == 0.0

    def test_mt_budget_compliance(self):
        m = self._machine(8)
        d = FvsstDaemon(
            m, DaemonConfig(counter_noise_sigma=0.0, power_limit_w=294.0,
                            overhead=PER_CORE_OVERHEAD),
            seed=9)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(1.0)
        assert m.cpu_power_w() <= 294.0 + 1e-9
