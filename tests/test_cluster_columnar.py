"""The columnar control plane: batched predictors, ViewBatch, the
columnar log — and committed golden digests of whole coordinator runs,
recorded while the per-object pipeline still existed and gave the same
values as the columnar one.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import fault_scenario, fleet_fault_scenario
from repro.cluster.hierarchy import FleetAllocator, FleetConfig
from repro.core.logs import FvsstLog, ScheduleLogEntry
from repro.core.predictor import AlphaPredictor, CounterPredictor
from repro.core.scheduler import (
    FrequencyVoltageScheduler,
    ProcessorView,
    Schedule,
    ViewBatch,
)
from repro.errors import ClusterError, SchedulingError
from repro.model.ipc import WorkloadSignature
from repro.model.latency import POWER4_LATENCIES
from repro.power.table import POWER4_TABLE
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.counters import CounterSample
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.telemetry import Telemetry
from repro.workloads.tiers import tiered_cluster_assignment


def quiet_cluster(nodes=2, procs=2, seed=0) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ),
        seed=seed,
    )


def random_window_arrays(n, seed=0):
    """Counter windows spanning the predictor's whole input space,
    degenerate rows included."""
    rng = np.random.default_rng(seed)
    instr = rng.uniform(1.0, 5e6, n)
    cycles = instr * rng.uniform(0.7, 3.0, n)
    n_l2 = rng.uniform(0.0, 3e4, n)
    n_l3 = rng.uniform(0.0, 1e4, n)
    n_mem = rng.uniform(0.0, 5e3, n)
    l1 = rng.uniform(0.0, 2e5, n)
    interval = rng.uniform(1e-3, 0.2, n)
    # Degenerate rows: below min_instructions, zero cycles (fully halted
    # window), zero/negative interval, and a heavy-memory row that trips
    # the core-CPI clamp.
    instr[0] = 999.0
    instr[1] = 0.0
    cycles[2] = 0.0
    interval[3] = 0.0
    interval[4] = -0.01
    n_mem[5] = 5e5
    cycles[5] = instr[5] * 0.8
    return instr, cycles, n_l2, n_l3, n_mem, l1, interval


class TestPredictorBatchEquivalence:
    """signatures_from_arrays is bit-equal to N scalar calls."""

    @pytest.mark.parametrize("make", [
        lambda: CounterPredictor(POWER4_LATENCIES),
        lambda: AlphaPredictor(POWER4_LATENCIES, alpha=0.8),
    ])
    def test_batch_matches_scalar_bitwise(self, make):
        predictor = make()
        cols = random_window_arrays(64, seed=3)
        has, core_cpi, mem_time = predictor.signatures_from_arrays(*cols)
        instr, cycles, n_l2, n_l3, n_mem, l1, interval = cols
        for i in range(64):
            sig = predictor.signature_from_sample(CounterSample(
                time_s=0.0, interval_s=interval[i],
                instructions=instr[i], cycles=cycles[i], n_l2=n_l2[i],
                n_l3=n_l3[i], n_mem=n_mem[i], l1_stall_cycles=l1[i],
                halted_cycles=0.0))
            if sig is None:
                assert not has[i]
                assert core_cpi[i] == 1.0 and mem_time[i] == 0.0
            else:
                assert has[i]
                # Bit-for-bit, not approx: the elementwise ops mirror the
                # scalar path exactly.
                assert core_cpi[i] == sig.core_cpi
                assert mem_time[i] == sig.mem_time_per_instr_s

    def test_counter_predictor_masks_degenerate_rows(self):
        predictor = CounterPredictor(POWER4_LATENCIES)
        cols = random_window_arrays(8, seed=1)
        has, _, _ = predictor.signatures_from_arrays(*cols)
        assert not has[0]   # below min_instructions
        assert not has[1]   # zero instructions
        assert not has[2]   # zero cycles
        assert not has[3]   # zero interval
        assert not has[4]   # negative interval

    def test_alpha_predictor_ignores_cycles_and_interval(self):
        predictor = AlphaPredictor(POWER4_LATENCIES, alpha=0.8)
        cols = random_window_arrays(8, seed=1)
        has, _, _ = predictor.signatures_from_arrays(*cols)
        assert not has[0] and not has[1]     # instruction floor still holds
        assert has[2] and has[3] and has[4]  # alpha needs no observation

    def test_core_cpi_clamp_applies_in_batch(self):
        predictor = CounterPredictor(POWER4_LATENCIES)
        cols = random_window_arrays(8, seed=1)
        has, core_cpi, _ = predictor.signatures_from_arrays(*cols)
        assert has[5] and core_cpi[5] == 0.05


def _views(n, seed=0):
    rng = np.random.default_rng(seed)
    views = []
    for i in range(n):
        roll = rng.uniform()
        if roll < 0.1:
            sig = None
        else:
            sig = WorkloadSignature(
                core_cpi=float(rng.uniform(0.5, 2.0)),
                mem_time_per_instr_s=float(rng.uniform(0.0, 2e-9)))
        views.append(ProcessorView(node_id=i // 4, proc_id=i % 4,
                                   signature=sig,
                                   idle_signaled=bool(roll > 0.9)))
    return views


class TestViewBatch:
    def test_column_shape_mismatch_rejected(self):
        with pytest.raises(SchedulingError):
            ViewBatch([0, 0], [0], [True], [1.0], [0.0])

    @pytest.mark.parametrize("limit", [None, 300.0])
    def test_schedule_identical_to_view_list(self, limit):
        views = _views(32, seed=4)
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        assert sched.schedule(views, limit) == \
            sched.schedule(ViewBatch.from_views(views), limit)

    def test_node_limits_identical_to_view_list(self):
        views = _views(32, seed=5)
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        limits = {1: 70.0, 3: 60.0}
        a = sched.schedule(views, 280.0, node_limits_w=limits)
        b = sched.schedule(ViewBatch.from_views(views), 280.0,
                           node_limits_w=limits)
        assert a == b

    def test_heterogeneous_scheduler_accepts_batch(self):
        views = _views(16, seed=6)
        rng = np.random.default_rng(1)
        sched = FrequencyVoltageScheduler(
            POWER4_TABLE,
            power_scales={(v.node_id, v.proc_id): float(rng.uniform(0.9, 1.2))
                          for v in views})
        assert sched.schedule(views, 120.0) == \
            sched.schedule(ViewBatch.from_views(views), 120.0)

    def test_duplicate_keys_rejected_through_batch(self):
        views = [ProcessorView(0, 0, None), ProcessorView(0, 0, None)]
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        with pytest.raises(SchedulingError):
            sched.schedule(ViewBatch.from_views(views))


#: Metrics left out of the golden digests: the wall-clock histograms (the
#: only nondeterministic values between two identical runs) and the node
#: health gauges, which the tests assert directly.
_UNHASHED_METRICS = ("cluster_pass_seconds", "scheduler_pass_seconds",
                     "shard_rebalance_seconds", "cluster_nodes_healthy",
                     "cluster_nodes_stale", "cluster_nodes_lost")

_LOG_FIELDS = [name for name in ScheduleLogEntry.__dataclass_fields__
               if name != "pass_wall_s"]


def _canonical(value):
    """JSON-ready form of ``value`` with every float written exactly."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _coordinator_outputs(coord) -> dict:
    return {
        "log": [[getattr(e, name) for name in _LOG_FIELDS]
                for e in coord.log.schedule_entries],
        "tallies": [coord.reports_dropped, coord.commands_dropped,
                    coord.command_retries, coord.stale_passes,
                    coord.floor_scheduled_procs,
                    coord.max_scheduled_power_w, coord.node_health],
    }


def outputs_digest(cluster, coordinators, telemetry, extra=None) -> str:
    """sha256 over the schedule logs (without ``pass_wall_s``), the
    applied frequency vectors, the resilience tallies, and the telemetry
    snapshot (without wall-clock histograms and health gauges)."""
    metrics = telemetry.snapshot()["metrics"]
    payload = {
        "coordinators": [_coordinator_outputs(c) for c in coordinators],
        "freqs": [node.machine.frequency_vector_hz()
                  for node in cluster.nodes],
        "metrics": {name: [m["type"], m["series"]]
                    for name, m in metrics.items()
                    if name not in _UNHASHED_METRICS},
        "extra": extra,
    }
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def health_gauges(telemetry) -> tuple:
    """``cluster_nodes_{healthy,stale,lost}`` as read off the registry."""
    metrics = telemetry.snapshot()["metrics"]
    return tuple(
        sum(pt["value"] for pt in metrics[f"cluster_nodes_{s}"]["series"])
        for s in ("healthy", "stale", "lost"))


def run_coordinator_scenario(scenario):
    """3 nodes x 2 procs through a limit change and a node limit.  The
    crash scenario's window (node 1, [1.0 s, 2.0 s)) takes node 1 stale,
    lost (with the node limit landing on it), and back."""
    cluster = quiet_cluster(nodes=3, procs=2, seed=11)
    cluster.assign_all(tiered_cluster_assignment(
        3, 2, web_nodes=1, app_nodes=1))
    telemetry = Telemetry()
    coord = ClusterCoordinator(
        cluster,
        CoordinatorConfig(power_limit_w=330.0, counter_noise_sigma=0.0),
        telemetry=telemetry, faults=fault_scenario(scenario, seed=13),
        seed=21)
    sim = Simulation(cluster.machines)
    coord.attach(sim)
    sim.run_for(1.5)
    coord.set_power_limit(264.0, sim.now_s)
    sim.run_for(0.15)
    coord.set_node_limit(1, 80.0, sim.now_s)
    sim.run_for(0.6)
    return cluster, coord, telemetry


#: sha256 of each scenario's outputs (:func:`outputs_digest`), recorded
#: while the coordinator still had two pipelines — the columnar pass and
#: the per-object ``CoordinatorConfig(columnar=False)`` path — which gave
#: the same digest on every scenario here.  The none/lossy/crash digests
#: were re-recorded once, when node-limited passes started counting in
#: the ``scheduler_*`` metrics: the hashed payloads differed from the
#: earlier ones in the four ``scheduler_{passes,step1_evaluations,
#: step2_iterations,loss_evaluations}_total`` series alone.  All five were
#: re-recorded when the opt-in ``reschedule_tolerance`` fast path was
#: removed: each hashed payload lost its ``cluster_passes_skipped_total``
#: series (value 0) and nothing else.
GOLDEN_DIGESTS = {
    "none": "31d760f64ff262f46fd89002553d55da610ce3c6a81951514425badcc4cf453f",
    "lossy": "1e95e7fb03d8fc174bcf40e04045118dda24eae630d03e3cf4e7509a02f2c139",
    "crash": "1deb3ab7d08631c8692dac33c864c04f39d898d300c8b4903cb602a259f6a7f5",
    "alpha": "46afe3bd21634230b66eea340df2042f4cfd59e76e27d22ea1fabe34f880dc14",
    "fleet-chaos":
        "231723d011b568d9eafbbe8670538b9efcd5e8e4f6ba4a145cc6ee753789780d",
}


class TestCoordinatorColumnarEquivalence:
    """The one coordinator pass reproduces, bit for bit, the schedules,
    logs, applied frequencies, resilience tallies, and telemetry both
    retired pipelines produced — fault-free, lossy, through a crash, and
    under the fleet tier."""

    @pytest.mark.parametrize("scenario", [None, "lossy", "crash"])
    def test_paths_bit_identical(self, scenario):
        name = scenario or "none"
        cluster, coord, telemetry = run_coordinator_scenario(name)
        assert outputs_digest(cluster, [coord], telemetry) == \
            GOLDEN_DIGESTS[name]
        # Every node is back to healthy by the end of each scenario.
        assert health_gauges(telemetry) == (3, 0, 0)

    @pytest.mark.parametrize("scenario", ["none", "lossy", "crash"])
    def test_every_pass_counts_in_scheduler_metrics(self, scenario):
        # Node-limited passes included: each coordinator pass is one
        # Figure 3 pass in the scheduler's own counters.
        _cluster, _coord, telemetry = run_coordinator_scenario(scenario)
        snap = telemetry.snapshot()

        def total(name):
            return sum(pt["value"]
                       for pt in snap["metrics"][name]["series"])

        assert total("scheduler_passes_total") == \
            total("cluster_global_passes_total")

    def test_alpha_predictor_paths_identical(self):
        # AlphaPredictor ignores interval_s, so the coordinator must mask
        # empty windows itself (the t = 0 pass would otherwise get
        # signatures no per-sample evaluation builds).
        cluster = quiet_cluster(nodes=2, procs=2, seed=3)
        telemetry = Telemetry()
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0),
            predictor=AlphaPredictor(POWER4_LATENCIES, alpha=0.8),
            telemetry=telemetry, seed=9)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        first = coord.run_global_pass(0.0)   # empty windows: interval 0
        f_max = POWER4_TABLE.f_max_hz
        assert all(a.freq_hz == f_max for a in first.assignments)
        sim.run_for(0.25)
        assert outputs_digest(cluster, [coord], telemetry) == \
            GOLDEN_DIGESTS["alpha"]
        assert health_gauges(telemetry) == (2, 0, 0)

    def test_fleet_chaos_bit_identical(self):
        nodes, procs, shard_size = 16, 2, 4
        cluster = quiet_cluster(nodes=nodes, procs=procs, seed=5)
        cluster.assign_all(tiered_cluster_assignment(
            nodes, procs, web_nodes=4, app_nodes=4))
        budget = 0.7 * nodes * procs * POWER4_TABLE.max_power_w
        telemetry = Telemetry()
        allocator = FleetAllocator(
            cluster,
            CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0,
                              sample_period_s=0.02, schedule_period_s=0.1),
            fleet=FleetConfig(shard_size=shard_size, rebalance_period_s=0.2,
                              staleness_bound_s=0.3),
            telemetry=telemetry,
            faults=fleet_fault_scenario("chaos", num_nodes=nodes,
                                        shard_size=shard_size, seed=17),
            seed=6)
        sim = Simulation(cluster.machines)
        allocator.attach(sim)
        sim.run_for(1.2)
        extra = [allocator.rebalances, allocator.summaries_dropped,
                 allocator.leases_sent, allocator.leases_dropped,
                 allocator.max_committed_w, allocator.committed_w,
                 allocator.shard_health,
                 [[s.leases_applied, s.leases_stale_dropped, s.power_limit_w]
                  for s in allocator.shards]]
        assert outputs_digest(cluster, allocator.shards, telemetry,
                              extra) == GOLDEN_DIGESTS["fleet-chaos"]
        assert sum(s.stale_passes for s in allocator.shards) > 0
        # The shards share one registry, so the gauges hold the counts of
        # whichever shard passed last.
        assert health_gauges(telemetry) == (3, 1, 0)


class TestPredictorRequirement:
    def test_batchless_predictor_rejected(self):
        class ScalarOnly:
            def __init__(self):
                self.inner = CounterPredictor(POWER4_LATENCIES)

            def signature_from_sample(self, sample):
                return self.inner.signature_from_sample(sample)

        cluster = quiet_cluster(nodes=2, procs=2, seed=3)
        with pytest.raises(ClusterError, match="signatures_from_arrays"):
            ClusterCoordinator(
                cluster, CoordinatorConfig(counter_noise_sigma=0.0),
                predictor=ScalarOnly(), seed=9)

    def test_batch_method_looked_up_per_pass(self):
        # Instrumentation may wrap the method on the instance after
        # construction; the pass must call the wrapper.
        cluster = quiet_cluster(nodes=2, procs=2, seed=3)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=9)
        inner = coord.predictor.signatures_from_arrays
        calls = []

        def counted(*columns):
            calls.append(len(columns[0]))
            return inner(*columns)

        coord.predictor.signatures_from_arrays = counted
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.25)
        # One batched call per pass, over every processor.
        passes = len({e.time_s for e in coord.log.schedule_entries})
        assert passes >= 2 and calls == [4] * passes


class TestLogPassRecording:
    """``record_schedule_pass`` stores each pass's rows as given: the same
    entries read back, with None stored as NaN in the optional fields."""

    #: (time, limit, infeasible, wall) per pass; the last two share an
    #: instant, like a trigger pass landing on a periodic one.
    PASSES = ((0.1, None, False, None), (0.2, 150.0, False, 2e-4),
              (0.3, 120.0, True, 3e-4), (0.3, 110.0, True, None))

    def _rows(self, k, t, limit, infeasible, wall):
        freqs = POWER4_TABLE.freqs_hz
        return [
            ScheduleLogEntry(
                time_s=t, node_id=n, proc_id=p,
                freq_hz=freqs[(3 * n + p + k) % len(freqs)],
                eps_freq_hz=freqs[-1], voltage=1.1 + 0.01 * p,
                power_w=20.0 + n + 0.5 * p + k, predicted_loss=0.01 * n,
                predicted_ipc=None if p else 1.25 + k,
                power_limit_w=limit, infeasible=infeasible,
                pass_wall_s=wall)
            for n in range(3) for p in range(2)
        ]

    def test_pass_rows_read_back_with_none_as_nan(self):
        log, expected = FvsstLog(), []
        for k, (t, limit, infeasible, wall) in enumerate(self.PASSES):
            rows = self._rows(k, t, limit, infeasible, wall)
            expected += rows
            log.record_schedule_pass(
                t, [e.node_id for e in rows], [e.proc_id for e in rows],
                [e.freq_hz for e in rows], [e.eps_freq_hz for e in rows],
                [e.voltage for e in rows], [e.power_w for e in rows],
                [e.predicted_loss for e in rows],
                predicted_ipcs=[e.predicted_ipc for e in rows],
                power_limit_w=limit, infeasible=infeasible,
                pass_wall_s=wall)
        entries = log.schedule_entries
        assert entries == expected
        assert sum(e.predicted_ipc is None for e in entries) == 12
        assert sum(e.power_limit_w is None for e in entries) == 6
        assert sum(e.pass_wall_s is None for e in entries) == 12
        for name in ("predicted_ipc", "power_limit_w", "pass_wall_s"):
            assert np.isnan(log._sched.column(name)).tolist() == \
                [getattr(e, name) is None for e in expected]


class TestPowerSeriesDedup:
    """Satellite: a trigger pass at the same instant as a periodic pass
    must supersede it in power_series, not add to it."""

    def _pass(self, log, t, node_ids, proc_ids, powers):
        n = len(powers)
        log.record_schedule_pass(t, node_ids, proc_ids, [1e9] * n,
                                 [1e9] * n, [1.1] * n, powers, [0.0] * n)

    def test_same_instant_pass_supersedes(self):
        log = FvsstLog()
        # Periodic pass at t=1.0 ...
        self._pass(log, 1.0, [0, 0], [0, 1], [20.0, 22.0])
        # ... then a set_power_limit trigger pass at the same instant.
        self._pass(log, 1.0, [0, 0], [0, 1], [10.0, 11.0])
        times, power = log.power_series()
        assert times.tolist() == [1.0]
        # Pre-fix this summed both passes to 63 W.
        assert power.tolist() == [21.0]

    def test_distinct_procs_still_sum(self):
        log = FvsstLog()
        self._pass(log, 1.0, [0, 1], [0, 0], [20.0, 30.0])
        self._pass(log, 2.0, [0], [0], [25.0])
        times, power = log.power_series()
        assert times.tolist() == [1.0, 2.0]
        assert power.tolist() == [50.0, 25.0]

    def test_trigger_at_pass_time_via_coordinator(self):
        cluster = quiet_cluster(nodes=1, procs=2, seed=2)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=4)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.2)
        now = sim.now_s
        coord.run_global_pass(now)          # "periodic" pass at now
        coord.set_power_limit(250.0, now)   # trigger pass, same instant
        times, power = coord.log.power_series()
        at_now = power[np.flatnonzero(times == now)]
        limited = coord.last_schedule.total_power_w
        assert at_now.tolist() == [limited]


class TestDispatchGrouping:
    def test_out_of_order_assignments_still_sorted_per_node(self):
        cluster = quiet_cluster(nodes=1, procs=2, seed=7)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=8)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        table = coord.scheduler.table
        f_lo, f_hi = table.freqs_hz[0], table.freqs_hz[-1]
        mk = coord.scheduler.voltages.min_voltage
        # Hand-built schedule with proc 1 before proc 0.
        assignments = (
            ProcessorAssignmentFor(1, f_lo, mk(0, 1, f_lo), table),
            ProcessorAssignmentFor(0, f_hi, mk(0, 0, f_hi), table),
        )
        schedule = Schedule(assignments=assignments, total_power_w=0.0,
                            power_limit_w=None, epsilon=0.1)
        coord._dispatch(schedule, sim.now_s)
        sim.run_for(0.01)
        machine = cluster.nodes[0].machine
        assert machine.frequency_vector_hz() == [f_hi, f_lo]


def ProcessorAssignmentFor(proc_id, freq_hz, voltage, table):
    from repro.core.scheduler import ProcessorAssignment
    return ProcessorAssignment(
        node_id=0, proc_id=proc_id, freq_hz=freq_hz, voltage=voltage,
        power_w=table.power_at(freq_hz), predicted_loss=0.0,
        eps_freq_hz=freq_hz)
