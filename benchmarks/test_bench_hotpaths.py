"""Micro-benchmarks of the hot paths.

These time the components the fvsst daemon exercises every period — the
scheduling pass, the analytic core advance, counter sampling, prediction —
so regressions in the inner loops are visible independent of the
experiment-level benches.
"""

import numpy as np

from repro.core.predictor import CounterPredictor
from repro.core.scheduler import FrequencyVoltageScheduler, ProcessorView
from repro.model.ipc import WorkloadSignature
from repro.model.latency import POWER4_LATENCIES
from repro.power.supply import SupplyBank
from repro.power.table import POWER4_TABLE
from repro.sim.core import CoreConfig
from repro.sim.counters import CounterReader, CounterSample
from repro.sim.fleet import advance_machines, flush_machines
from repro.sim.machine import MachineConfig, SMPMachine
from repro.units import ghz
from repro.workloads.job import Job, LoopMode
from repro.workloads.synthetic import synthetic_phase


def _views(n: int) -> list[ProcessorView]:
    rng = np.random.default_rng(0)
    views = []
    for i in range(n):
        ratio = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        views.append(ProcessorView(
            node_id=i // 4, proc_id=i % 4,
            signature=WorkloadSignature(
                core_cpi=0.65,
                mem_time_per_instr_s=0.65 / ratio / ghz(1.0)),
        ))
    return views


class TestBenchScheduler:
    def test_bench_schedule_4_procs(self, benchmark):
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        views = _views(4)
        schedule = benchmark(lambda: sched.schedule(views,
                                                    power_limit_w=294.0))
        assert schedule.total_power_w <= 294.0

    def test_bench_schedule_256_procs(self, benchmark):
        """Cluster-scale pass: 64 nodes x 4 processors."""
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        views = _views(256)
        budget = 256 * 75.0
        schedule = benchmark(lambda: sched.schedule(views,
                                                    power_limit_w=budget))
        assert schedule.total_power_w <= budget


class ScalarForced(SMPMachine):
    """Subclassing ``_advance_to`` defeats fleet residency, so every span
    of such a machine delegates to the scalar per-chunk walk (the
    reference path)."""

    def _advance_to(self, t_end):
        super()._advance_to(t_end)


def _banked_16_nodes(cls=SMPMachine) -> list[SMPMachine]:
    """16 four-core machines with supply banks and latency jitter, one
    looping job plus three hot-idle cores each."""
    phases = tuple(
        synthetic_phase(r, duration_s=0.05, name=f"p{i}")
        for i, r in enumerate((1.0, 0.5, 0.2))
    )
    ms = [
        cls(MachineConfig(
            num_cores=4,
            core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=i)
        for i in range(16)
    ]
    for i, m in enumerate(ms):
        m.assign(0, Job(name=f"j{i}", phases=phases, loop=LoopMode.LOOP))
    return ms


def _one_core_machine(sigma: float, seed: int, job: Job) -> SMPMachine:
    machine = SMPMachine(MachineConfig(
        num_cores=1, initial_freq_hz=ghz(1.0),
        core_config=CoreConfig(latency_jitter_sigma=sigma)), seed=seed)
    machine.assign(0, job)
    return machine


class TestBenchSimulatorAdvance:
    def test_bench_advance_one_second(self, benchmark):
        """One simulated second of a jittered three-phase looping job on
        a one-core machine, through the one-lane fleet the driver uses
        (columns stay authoritative between spans, as in a run)."""
        phases = tuple(
            synthetic_phase(r, duration_s=0.05, name=f"p{i}")
            for i, r in enumerate((1.0, 0.5, 0.2))
        )
        machine = _one_core_machine(
            0.02, 1, Job(name="j", phases=phases, loop=LoopMode.LOOP))
        machines = [machine]

        benchmark(lambda: advance_machines(machines, 1.0, flush=False))
        flush_machines(machines)
        assert machine.cores[0].counters.instructions > 0

    def test_bench_advance_16_nodes_100s(self, benchmark):
        """Cluster-scale span advance through the fleet columns: 16
        four-core machines with supply banks and latency jitter, one
        looping job plus three hot-idle cores each, 100 s of simulated
        time per round (10 000 supply-observation chunks per machine).

        Banked and jittered machines stay *resident* since the widened
        fleet kernel: the supply span is planned once per machine and
        chunk-walked inside the columns, and jitter draws come from the
        block-refilled lane buffers.  The bench asserts full residency
        and that the fleet path beats the scalar per-chunk walk (the
        reference path, forced via a subclass) by >= 4x."""
        import time as _time

        machines = _banked_16_nodes()
        spans = []

        def advance_all():
            spans.append(advance_machines(machines, 100.0))

        benchmark(advance_all)
        # Every span kept every machine in columns: no fallbacks.
        assert spans and all(span == (16, None) for span in spans)
        # Demand (746 W) stays under two-supply capacity: no cascades.
        assert all(m.supply_bank.cascade_count == 0 for m in machines)
        assert machines[0].ledger.total_energy_j > 0

        # The >= 4x acceptance vs the scalar per-chunk walk, measured on
        # a shorter horizon.
        fleet_s = scalar_s = float("inf")
        for _ in range(2):
            ms = _banked_16_nodes()
            t0 = _time.perf_counter()
            advance_machines(ms, 5.0)
            fleet_s = min(fleet_s, _time.perf_counter() - t0)
            ms = _banked_16_nodes(ScalarForced)
            t0 = _time.perf_counter()
            advance_machines(ms, 5.0)
            scalar_s = min(scalar_s, _time.perf_counter() - t0)
        speedup = scalar_s / fleet_s
        assert speedup >= 4.0, (
            f"fleet span advance {fleet_s * 1e3:.1f} ms vs scalar "
            f"per-chunk walk {scalar_s * 1e3:.1f} ms: only {speedup:.1f}x"
        )

    def test_bench_advance_16_nodes_short_spans(self, benchmark):
        """The 16 banked nodes of ``advance_16_nodes_100s`` over 500
        spans of 10 ms with ``flush=False``, the span length a 10 ms
        sampling tick cuts.  Each span is one supply-observation chunk,
        so the banked lanes ride the whole-fleet pass and each machine
        gets one planned observe.  The bench asserts full residency and
        that the columns beat the scalar per-chunk walk by >= 2x (min of
        2 runs each)."""
        import time as _time

        def spans_5s(ms):
            """The number of spans that kept all 16 machines resident."""
            resident = 0
            for _ in range(500):
                span = advance_machines(ms, 0.010, flush=False)
                resident += span == (16, None)
            flush_machines(ms)
            return resident

        machines = _banked_16_nodes()
        rounds = []
        benchmark(lambda: rounds.append(spans_5s(machines)))
        assert rounds and set(rounds) == {500}
        assert all(m.supply_bank.cascade_count == 0 for m in machines)

        fleet_s = scalar_s = float("inf")
        for _ in range(2):
            ms = _banked_16_nodes()
            t0 = _time.perf_counter()
            spans_5s(ms)
            fleet_s = min(fleet_s, _time.perf_counter() - t0)
            ms = _banked_16_nodes(ScalarForced)
            t0 = _time.perf_counter()
            spans_5s(ms)
            scalar_s = min(scalar_s, _time.perf_counter() - t0)
        speedup = scalar_s / fleet_s
        assert speedup >= 2.0, (
            f"fleet short spans {fleet_s * 1e3:.1f} ms vs scalar "
            f"per-chunk walk {scalar_s * 1e3:.1f} ms: only {speedup:.1f}x"
        )

    def test_bench_serving_advance(self, benchmark, monkeypatch):
        """Open-loop serving at fleet-kernel cost: 16 eight-core nodes
        under constant Poisson traffic for 100 simulated seconds.  Every
        request is a ONCE job; since completion became a columnar
        crossing the lanes stay resident through arrival, completion, and
        the drain back to hot idle — the bench asserts *zero* fallbacks
        (``reason="transient"`` included) and >= 5x over the scalar
        reference (every span through ``machine.advance``) on a shorter
        horizon."""
        import time as _time

        from repro.sim import driver
        from repro.sim.cluster import Cluster
        from repro.sim.driver import Simulation
        from repro.workloads.server import RequestSpec
        from repro.workloads.serving import FleetTrafficSource

        def build():
            cluster = Cluster.homogeneous(
                16,
                machine_config=MachineConfig(
                    num_cores=8,
                    core_config=CoreConfig(latency_jitter_sigma=0.02)),
                seed=3)
            sim = Simulation(cluster.machines)
            traffic = FleetTrafficSource(
                cluster, rate_per_s=lambda t: 128.0, max_rate_per_s=128.0,
                spec=RequestSpec(instructions=2e7), seed=41)
            traffic.attach(sim)
            return sim, traffic

        state = {}

        def serve_100s():
            sim, traffic = build()
            sim.run_for(100.0)
            state["sim"], state["traffic"] = sim, traffic

        benchmark(serve_100s)
        sim, traffic = state["sim"], state["traffic"]
        assert traffic.issued > 10_000
        assert traffic.completed > 10_000
        # Resident serving lanes: no fallbacks of any reason, and in
        # particular no "transient" ones (the pre-crossing ONCE reason).
        assert sim.fleet_fallbacks == {}
        assert sim.fleet_advances > 0

        def scalar_reference(machines, dt, *, flush=True):
            for machine in machines:
                machine.advance(dt)
            return 0, None

        # The >= 5x acceptance vs the scalar reference, min-of-2 on a
        # 10 s horizon (same traffic, same seeds, bit-identical results).
        fleet_s = scalar_s = float("inf")
        for _ in range(2):
            sim, _ = build()
            t0 = _time.perf_counter()
            sim.run_for(10.0)
            fleet_s = min(fleet_s, _time.perf_counter() - t0)
            with monkeypatch.context() as mp:
                mp.setattr(driver, "advance_machines", scalar_reference)
                sim, _ = build()
                t0 = _time.perf_counter()
                sim.run_for(10.0)
                scalar_s = min(scalar_s, _time.perf_counter() - t0)
        speedup = scalar_s / fleet_s
        assert speedup >= 5.0, (
            f"fleet serving advance {fleet_s * 1e3:.1f} ms vs scalar "
            f"reference {scalar_s * 1e3:.1f} ms: only {speedup:.1f}x"
        )

    def test_bench_advance_1024_nodes_10s(self, benchmark):
        """Fleet-scale span advance: 1024 bankless single-core machines
        driven through the event loop with a 10 ms periodic tick — the
        chaos-smoke access pattern.  Every span goes through the fleet
        columns (one numpy pass over all 1024 lanes), which is the layer-6
        win; the scalar reference makes this bench ~2 orders of magnitude
        slower."""
        from repro.sim.driver import Simulation

        phases = tuple(
            synthetic_phase(r, duration_s=0.05, name=f"p{i}")
            for i, r in enumerate((1.0, 0.5, 0.2))
        )
        machines = [
            SMPMachine(MachineConfig(
                num_cores=1,
                core_config=CoreConfig(latency_jitter_sigma=0.0)),
                seed=i)
            for i in range(1024)
        ]
        for i, m in enumerate(machines):
            if i % 2 == 0:
                m.assign(0, Job(name=f"j{i}", phases=phases,
                                loop=LoopMode.LOOP))
        sim = Simulation(machines)
        sim.every(0.010, lambda t: None)

        def advance_all():
            sim.run_for(10.0)

        benchmark(advance_all)
        assert machines[0].cores[0].counters.instructions > 0


class TestBenchCounterPath:
    def test_bench_counter_sampling(self, benchmark):
        """One 10 ms sampling tick: a one-lane fleet span, then a noisy
        counter read (the snapshot flushes the lane's counter columns)."""
        machine = _one_core_machine(0.0, 2, Job(
            name="j", phases=(synthetic_phase(0.5, duration_s=10.0),),
            loop=LoopMode.LOOP))
        machines = [machine]
        reader = CounterReader(machine.cores[0].counters, noise_sigma=0.005,
                               rng=3)

        def sample_tick():
            advance_machines(machines, 0.01, flush=False)
            return reader.sample(machine.now_s)

        sample = benchmark(sample_tick)
        assert sample.interval_s > 0

    def test_bench_agent_sample_tick(self, benchmark):
        """One noisy tick of a coordinator's agent sampler over 256 x 4
        resident lanes: one gather from the fleet's counter columns, one
        block delta, two window-sum adds (a noise refill every 16th)."""
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.sim.cluster import Cluster
        from repro.sim.driver import Simulation
        from repro.workloads.tiers import tiered_cluster_assignment

        cluster = Cluster.homogeneous(
            256, machine_config=MachineConfig(num_cores=4), seed=2)
        cluster.assign_all(tiered_cluster_assignment(256, 4))
        coord = ClusterCoordinator(cluster, seed=3)
        assert coord.config.counter_noise_sigma > 0.0
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.005)   # the fleet is live; no tick has fired yet
        core = cluster.nodes[0].machine.cores[0]
        assert core._fleet is not None and core._fleet._valid
        tick = coord._sampler._on_tick

        benchmark(tick, sim.now_s)
        assert coord._sampler.since_confirm.shape == (8, 1024)

    def test_bench_prediction(self, benchmark):
        predictor = CounterPredictor(POWER4_LATENCIES)
        sample = CounterSample(
            time_s=0.1, interval_s=0.1, instructions=5e7, cycles=1e8,
            n_l2=2e5, n_l3=5e4, n_mem=3e5, l1_stall_cycles=5e6,
            halted_cycles=0.0,
        )
        freqs = POWER4_TABLE.freqs_array()

        def predict_all():
            sig = predictor.signature_from_sample(sample)
            return sig.ipc_array(freqs)

        ipcs = benchmark(predict_all)
        assert len(ipcs) == 16


def _node_reports(nodes: int, procs: int, seed: int = 17, start: int = 0):
    from repro.cluster.protocol import REPORT_FIELDS, NodeReport
    rng = np.random.default_rng(seed)
    reports = []
    for n in range(start, start + nodes):
        counters = np.zeros((len(REPORT_FIELDS), procs))
        for p in range(procs):
            instr = float(rng.uniform(5e5, 5e6))
            counters[:, p] = (instr, instr * float(rng.uniform(0.8, 2.5)),
                              float(rng.uniform(0.0, 2e4)),
                              float(rng.uniform(0.0, 8e3)),
                              float(rng.uniform(0.0, 4e3)),
                              float(rng.uniform(0.0, 1e5)), 0.0, 0.1)
        reports.append(NodeReport(node_id=n, time_s=0.1,
                                  proc_ids=tuple(range(procs)),
                                  counters=counters,
                                  idle_signaled=(False,) * procs))
    return reports


def _coordinator():
    from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
    from repro.sim.cluster import Cluster
    from repro.sim.core import CoreConfig
    from repro.sim.machine import MachineConfig
    cluster = Cluster.homogeneous(
        1,
        machine_config=MachineConfig(
            num_cores=1, core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=1)
    return ClusterCoordinator(
        cluster, CoordinatorConfig(power_limit_w=None), seed=2)


class TestBenchClusterPass:
    """The coordinator's global-pass hot path (views -> schedule -> record)
    at 64 nodes x 4 processors."""

    def test_bench_cluster_pass_64x4_columnar(self, benchmark):
        from repro.core.logs import FvsstLog
        coord = _coordinator()
        reports = _node_reports(64, 4)

        def one_pass():
            coord.log = FvsstLog()
            views = coord._view_batch_from_reports(reports)
            schedule = coord.scheduler.schedule(views, None,
                                                on_infeasible="floor")
            coord._record(schedule, 0.1)
            return schedule

        schedule = benchmark(one_pass)
        assert len(schedule.assignments) == 256


class TestBenchHierarchicalPass:
    """One full hierarchical round at datacenter scale: 1024 nodes in 256
    four-node shards (4096 processors).  Per shard: columnar views from
    the rack's reports -> Figure 3 pass against the delegated budget ->
    record -> summary ladder; then one fleet water-fill over all 256
    ladders.  The fleet tier itself touches O(shards x rungs) floats, so
    the round should cost ~256x the 4-node shard pass plus noise."""

    def test_bench_hier_round_1024_nodes(self, benchmark):
        from repro.cluster.coordinator import ClusterCoordinator, \
            CoordinatorConfig
        from repro.cluster.hierarchy import FleetAllocator, FleetConfig, \
            water_fill_budgets
        from repro.core.logs import FvsstLog
        from repro.sim.cluster import Cluster
        from repro.sim.core import CoreConfig
        from repro.sim.machine import MachineConfig

        nodes, procs, shard_size = 1024, 4, 4
        budget = nodes * procs * 75.0
        cluster = Cluster.homogeneous(
            nodes,
            machine_config=MachineConfig(
                num_cores=procs,
                core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=1)
        alloc = FleetAllocator(
            cluster, CoordinatorConfig(power_limit_w=budget),
            fleet=FleetConfig(shard_size=shard_size), seed=2)
        shard_reports = [
            _node_reports(shard_size, procs, seed=17 + i,
                          start=i * shard_size)
            for i in range(alloc.num_shards)
        ]

        def one_round():
            ladders = []
            for shard, reports in zip(alloc.shards, shard_reports):
                shard.log = FvsstLog()
                views = shard._view_batch_from_reports(reports)
                schedule = shard.scheduler.schedule(
                    views, shard.power_limit_w, on_infeasible="floor")
                shard._record(schedule, 0.1)
                shard.last_schedule = schedule
                ladders.append(shard.make_summary(0.1).capped_demand_w)
            return water_fill_budgets(np.asarray(ladders), budget)

        budgets, infeasible = benchmark(one_round)
        assert len(budgets) == 256 and not infeasible
        assert float(budgets.sum()) <= budget + 1e-6


class TestBenchLogQueries:
    """Vectorised query paths of the columnar scheduling log."""

    def _populated_log(self, passes: int = 200, procs: int = 256):
        from repro.core.logs import FvsstLog
        rng = np.random.default_rng(5)
        log = FvsstLog()
        node_ids = [i // 4 for i in range(procs)]
        proc_ids = [i % 4 for i in range(procs)]
        freqs = POWER4_TABLE.freqs_hz
        for k in range(passes):
            f = [freqs[int(r)] for r in rng.integers(0, len(freqs), procs)]
            log.record_schedule_pass(
                0.1 * (k + 1), node_ids, proc_ids, f, f,
                [1.1] * procs, [70.0] * procs, [0.01] * procs,
                power_limit_w=None, infeasible=False)
        return log

    def test_bench_power_series(self, benchmark):
        log = self._populated_log()
        times, power = benchmark(log.power_series)
        assert len(times) == 200

    def test_bench_frequency_residency(self, benchmark):
        log = self._populated_log()
        residency = benchmark(log.frequency_residency, node_id=0, proc_id=0)
        assert abs(sum(residency.values()) - 1.0) < 1e-9
