"""End-to-end integration tests across subsystems."""

from repro import constants
from repro.core.baselines import NoManagementGovernor, UniformScalingGovernor
from repro.core.daemon import DaemonConfig, FvsstDaemon, OverheadModel
from repro.power.budget import ComplianceMonitor, PowerBudget
from repro.power.supply import SupplyBank
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import ghz, mhz
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import two_phase_benchmark


def machine(num_cores=4, supply_bank=None, jitter=0.0, seed=0) -> SMPMachine:
    return SMPMachine(MachineConfig(
        num_cores=num_cores,
        core_config=CoreConfig(latency_jitter_sigma=jitter),
    ), supply_bank=supply_bank, seed=seed)


class TestPsuFailureScenario:
    """The Section 2 motivating example, end to end."""

    def test_fvsst_beats_the_cascade_deadline(self):
        bank = SupplyBank.example_p630()   # raises on cascade
        m = machine(supply_bank=bank)
        for i, app in enumerate(("gzip", "gap", "mcf", "health")):
            m.assign(i, profile_by_name(app).job(loop=True))
        d = FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.0), seed=1)
        sim = Simulation(m)
        d.attach(sim)
        monitor = ComplianceMonitor(PowerBudget(limit_w=960.0))
        sim.every(0.01, lambda t: monitor.observe(t, m.system_power_w()))

        def fail(t):
            remaining = bank.fail_supply(0)
            monitor.set_budget(PowerBudget(limit_w=remaining), t)
            d.set_power_limit(remaining - constants.NON_CPU_POWER_W, t)

        sim.at(1.0, fail)
        sim.run_for(4.0)    # raises CascadeFailureError on failure

        assert bank.cascade_count == 0
        response = monitor.response_time_s()
        assert response is not None
        assert response < constants.PSU_CASCADE_DEADLINE_S
        assert m.system_power_w() <= 480.0

    def test_unmanaged_system_cascades(self):
        bank = SupplyBank.example_p630(raise_on_cascade=False)
        m = machine(supply_bank=bank)
        g = NoManagementGovernor(m)
        sim = Simulation(m)
        g.attach(sim)
        sim.at(1.0, lambda t: bank.fail_supply(0))
        sim.run_for(4.0)
        assert bank.cascade_count >= 1

    def test_uniform_scaling_also_survives_but_slower_workload(self):
        bank = SupplyBank.example_p630()
        m = machine(supply_bank=bank)
        job = profile_by_name("mcf").job(loop=True)
        m.assign(3, job)
        g = UniformScalingGovernor(m)
        sim = Simulation(m)
        g.attach(sim)
        sim.at(1.0, lambda t: (
            bank.fail_supply(0),
            g.set_power_limit(480.0 - constants.NON_CPU_POWER_W, t),
        ))
        sim.run_for(4.0)
        assert bank.cascade_count == 0
        # Uniform cap for 4 procs at 294 W is 700 MHz.
        assert m.frequency_vector_hz() == [mhz(700)] * 4


class TestDaemonOverSyntheticBenchmark:
    def test_phase_tracking_with_noise_and_jitter(self):
        """Realistic configuration: noise, jitter, overhead all on."""
        m = machine(num_cores=1, jitter=0.02, seed=3)
        bench = two_phase_benchmark(1.0, 0.2, duration_a_s=1.0,
                                    duration_b_s=1.0,
                                    include_init_exit=False)
        m.assign(0, bench.job(loop=True))
        d = FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.005,
                                        overhead=OverheadModel(),
                                        daemon_core=0), seed=4)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(6.0)
        residency = d.log.frequency_residency(0, 0)
        fast = sum(v for f, v in residency.items() if f >= mhz(950))
        slow = sum(v for f, v in residency.items() if f <= mhz(500))
        # Both phases visible in the frequency distribution.
        assert fast > 0.3
        assert slow > 0.3

    def test_frequency_tracks_ipc_direction(self):
        m = machine(num_cores=1, seed=5)
        bench = two_phase_benchmark(1.0, 0.2, duration_a_s=1.0,
                                    duration_b_s=1.0,
                                    include_init_exit=False)
        m.assign(0, bench.job(loop=True))
        d = FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.0), seed=6)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(6.0)
        pairs = d.log.prediction_pairs(0, 0)
        t_f, freqs = d.log.frequency_series(0, 0)
        measured = dict((t, m_) for t, _p, m_ in pairs)
        scored = [(measured[t], f) for t, f in zip(t_f, freqs)
                  if t in measured]
        assert len(scored) > 10
        median_ipc = sorted(v for v, _f in scored)[len(scored) // 2]
        hi = [f for v, f in scored if v > median_ipc]
        lo = [f for v, f in scored if v <= median_ipc]
        assert sum(hi) / len(hi) > sum(lo) / len(lo)


class TestEnergyAccountingEndToEnd:
    def test_fvsst_saves_energy_on_memory_bound_work(self):
        def run(managed: bool) -> float:
            m = machine(num_cores=1, seed=7)
            m.assign(0, profile_by_name("mcf").job(loop=True))
            sim = Simulation(m)
            if managed:
                FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.0),
                            seed=8).attach(sim)
            else:
                NoManagementGovernor(m).attach(sim)
            sim.run_for(5.0)
            return m.ledger.energy_of("core0")

        ratio = run(True) / run(False)
        # Table 3: mcf's CPU energy is ~0.43-0.56 of the unmanaged run.
        assert 0.35 < ratio < 0.65

    def test_work_conservation_under_saturation(self):
        """fvsst at saturation frequency completes fixed work in nearly
        the same time (fixed-work comparison avoids the wall-clock-window
        bias against short high-IPC phases)."""
        def completion(managed: bool) -> float:
            m = machine(num_cores=1, seed=9)
            job = profile_by_name("mcf").job(body_repeats=2)
            m.assign(0, job)
            sim = Simulation(m)
            if managed:
                FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.0),
                            seed=10).attach(sim)
            else:
                NoManagementGovernor(m).attach(sim)
            while not job.done:
                sim.run_for(0.5)
            return job.elapsed_s()

        slowdown = completion(True) / completion(False)
        assert slowdown < 1.07


class TestMultiprogrammedAggregation:
    def test_aggregate_signature_blends_jobs(self):
        """Two jobs on one core: the daemon schedules for the mixture."""
        m = machine(num_cores=1, seed=11)
        m.assign(0, profile_by_name("gzip").job(loop=True))
        m.assign(0, profile_by_name("mcf").job(loop=True))
        d = FvsstDaemon(m, DaemonConfig(counter_noise_sigma=0.0), seed=12)
        sim = Simulation(m)
        d.attach(sim)
        sim.run_for(3.0)
        res = d.log.frequency_residency(0, 0)
        modal = max(res, key=res.get)
        # The blend sits between mcf's 650 and gzip's 950-1000: the
        # masking effect Section 5 warns about.
        assert mhz(650) < modal < ghz(1.0)
