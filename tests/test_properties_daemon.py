"""Property-based tests of the daemon over random workloads and events."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
from repro.core.scheduler import FrequencyVoltageScheduler
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.workloads.generator import GeneratorSpec, WorkloadGenerator


def build_machine(seed: int, num_cores: int, jobs_seed: int) -> SMPMachine:
    machine = SMPMachine(MachineConfig(
        num_cores=num_cores,
        core_config=CoreConfig(latency_jitter_sigma=0.01),
    ), seed=seed)
    gen = WorkloadGenerator(jobs_seed, GeneratorSpec(
        phase_duration_low_s=0.2, phase_duration_high_s=1.0))
    for i, job in enumerate(gen.jobs(num_cores)):
        machine.assign(i, job)
    return machine


class TestDaemonInvariants:
    @given(seed=st.integers(0, 10_000),
           num_cores=st.integers(1, 4),
           budget=st.floats(50.0, 500.0))
    @settings(max_examples=15, deadline=None)
    def test_scheduled_power_respects_feasible_budget(self, seed, num_cores,
                                                      budget):
        machine = build_machine(seed, num_cores, seed + 1)
        floor = num_cores * machine.table.min_power_w
        daemon = FvsstDaemon(machine, DaemonConfig(
            power_limit_w=max(budget, floor),
            counter_noise_sigma=0.005,
            overhead=OverheadModel(enabled=False)), seed=seed + 2)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(1.0)
        limit = max(budget, floor)
        assert daemon.last_schedule.total_power_w <= limit + 1e-9
        assert machine.cpu_power_w() <= limit + 1e-9

    @given(seed=st.integers(0, 10_000),
           limits=st.lists(st.floats(60.0, 500.0), min_size=1, max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_budget_changes_mid_run_always_converge(self, seed, limits):
        machine = build_machine(seed, 2, seed + 1)
        daemon = FvsstDaemon(machine, DaemonConfig(
            counter_noise_sigma=0.005,
            overhead=OverheadModel(enabled=False)), seed=seed + 2)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(0.3)
        for limit in limits:
            daemon.set_power_limit(limit, sim.now_s)
            sim.run_for(0.3)
        final = limits[-1]
        floor = 2 * machine.table.min_power_w
        assert machine.cpu_power_w() <= max(final, floor) + 1e-9

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_single_pass_daemon_equivalent_end_to_end(self, seed):
        """A scheduler passed in through ``scheduler=`` must not change the
        machine's trajectory (same decisions at every pass)."""
        def run(single_pass: bool) -> list[float]:
            machine = build_machine(seed, 2, seed + 1)
            kwargs = {}
            if single_pass:
                kwargs["scheduler"] = FrequencyVoltageScheduler(
                    machine.table)
            daemon = FvsstDaemon(machine, DaemonConfig(
                power_limit_w=200.0, counter_noise_sigma=0.0,
                overhead=OverheadModel(enabled=False)),
                seed=seed + 2, **kwargs)
            sim = Simulation(machine)
            daemon.attach(sim)
            sim.run_for(1.0)
            return [e.freq_hz for e in daemon.log.schedule_entries]

        assert run(False) == run(True)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_all_scheduled_frequencies_on_the_ladder(self, seed):
        machine = build_machine(seed, 2, seed + 1)
        daemon = FvsstDaemon(machine, DaemonConfig(
            counter_noise_sigma=0.02,
            overhead=OverheadModel(enabled=False)), seed=seed + 2)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(1.0)
        for entry in daemon.log.schedule_entries:
            assert entry.freq_hz in machine.table
            assert entry.eps_freq_hz in machine.table
            assert entry.freq_hz <= entry.eps_freq_hz + 1e-9
