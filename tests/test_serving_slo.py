"""The SLO-aware serving layer: fleet traffic, latency histograms, the
latency model, and p99-to-frequency floors through the schedulers."""

import math

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.hierarchy import FleetAllocator, FleetConfig
from repro.core.scheduler import (
    FrequencyVoltageScheduler,
    ProcessorView,
    ViewBatch,
)
from repro.errors import ClusterError, ModelError, WorkloadError
from repro.model.ipc import WorkloadSignature
from repro.model.latency import POWER4_LATENCIES
from repro.model.latency_model import (
    frequency_floor_hz,
    mm1_response_quantile_s,
    predicted_latency_quantile_s,
    service_time_s,
)
from repro.power.table import POWER4_TABLE
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.idle import IdleStyle
from repro.sim.machine import MachineConfig, SMPMachine
from repro.telemetry import prometheus_text, registry_from_snapshot
from repro.units import ghz, mhz
from repro.workloads.server import RequestSpec, ServerSource, constant_rate
from repro.workloads.serving import (
    REQUEST_LATENCY_BUCKETS_S,
    BlockedDraws,
    FleetTrafficSource,
    flash_crowd_rate,
)
from repro.workloads.traces import RateTrace


def sig(ratio: float, core_cpi: float = 0.65) -> WorkloadSignature:
    return WorkloadSignature(core_cpi=core_cpi,
                             mem_time_per_instr_s=core_cpi / ratio / ghz(1.0))


def pview(node: int, proc: int, signature=None, idle=False) -> ProcessorView:
    return ProcessorView(node_id=node, proc_id=proc, signature=signature,
                         idle_signaled=idle)


def serving_cluster(nodes=2, procs=1, seed=0) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0,
                                   idle_style=IdleStyle.HALT),
        ),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Rate curves and traces


class TestFlashCrowd:
    def test_shape(self):
        rate = flash_crowd_rate(10.0, 100.0, t_start_s=1.0, ramp_s=1.0,
                                hold_s=2.0, decay_s=1.0)
        assert rate(0.0) == 10.0
        assert rate(1.5) == pytest.approx(55.0)
        assert rate(2.0) == rate(3.0) == rate(4.0) == 100.0
        assert rate(4.5) == pytest.approx(55.0)
        assert rate(5.0) == rate(9.0) == 10.0

    def test_peak_below_base_rejected(self):
        with pytest.raises(WorkloadError):
            flash_crowd_rate(10.0, 5.0, t_start_s=0.0, ramp_s=1.0,
                             hold_s=1.0, decay_s=1.0)


class TestRateTrace:
    def test_step_semantics(self):
        trace = RateTrace.from_points([(0.0, 5.0), (1.0, 50.0), (2.0, 0.0)])
        rate = trace.rate_fn()
        assert rate(-1.0) == 5.0
        assert rate(0.0) == rate(0.99) == 5.0
        assert rate(1.0) == rate(1.5) == 50.0
        assert rate(2.0) == rate(100.0) == 0.0
        assert trace.max_rate_per_s == 50.0

    def test_jsonl_round_trip(self, tmp_path):
        trace = RateTrace.from_points([(0.0, 5.0), (0.5, 20.0)])
        path = tmp_path / "rates.jsonl"
        trace.dump_jsonl(path)
        assert RateTrace.load_jsonl(path) == trace

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RateTrace(times_s=(), rates_per_s=())
        with pytest.raises(WorkloadError):
            RateTrace(times_s=(1.0,), rates_per_s=(5.0,))   # not at 0
        with pytest.raises(WorkloadError):
            RateTrace(times_s=(0.0, 0.0), rates_per_s=(1.0, 2.0))
        with pytest.raises(WorkloadError):
            RateTrace(times_s=(0.0,), rates_per_s=(-1.0,))
        with pytest.raises(WorkloadError):
            RateTrace(times_s=(0.0, 1.0), rates_per_s=(1.0,))

    def test_rejects_non_finite_times(self):
        # A NaN time passes the ordering checks and its step is never
        # reached; an infinite one is unreachable too.
        for t in (math.nan, math.inf):
            with pytest.raises(WorkloadError, match="times must be finite"):
                RateTrace.from_points([(0.0, 1.0), (t, 2.0)])
        with pytest.raises(WorkloadError, match="times must be finite"):
            RateTrace(times_s=(math.nan,), rates_per_s=(1.0,))

    def test_rejects_non_finite_rates(self):
        # A NaN rate after the first step used to thin to no arrivals.
        for r in (math.nan, math.inf):
            with pytest.raises(WorkloadError, match="rates must be finite"):
                RateTrace.from_points([(0.0, 2000.0), (0.1, r), (0.2, 2000.0)])
            with pytest.raises(WorkloadError, match="rates must be finite"):
                RateTrace.from_points([(0.0, r)])

    def test_load_rejects_nan_and_infinity_tokens(self, tmp_path):
        header = '{"version": 1, "kind": "rate-trace"}\n'
        for body in ('{"t": 0.0, "rate_per_s": 1.0}\n{"t": NaN, "rate_per_s": 2.0}\n',
                     '{"t": 0.0, "rate_per_s": NaN}\n',
                     '{"t": 0.0, "rate_per_s": Infinity}\n',
                     '{"t": 0.0, "rate_per_s": 1.0}\n{"t": Infinity, "rate_per_s": 2.0}\n'):
            path = tmp_path / "rates.jsonl"
            path.write_text(header + body)
            with pytest.raises(WorkloadError, match="must be finite"):
                RateTrace.load_jsonl(path)

    def test_load_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(WorkloadError):
            RateTrace.load_jsonl(path)
        path.write_text('{"kind": "phase-trace", "version": 1}\n')
        with pytest.raises(WorkloadError):
            RateTrace.load_jsonl(path)
        with pytest.raises(WorkloadError):
            RateTrace.load_jsonl(tmp_path / "missing.jsonl")

    def test_drives_a_server_source(self):
        trace = RateTrace.from_points([(0.0, 0.0), (0.5, 150.0)])
        machine = SMPMachine(MachineConfig(
            num_cores=1,
            core_config=CoreConfig(latency_jitter_sigma=0.0,
                                   idle_style=IdleStyle.HALT)), seed=2)
        sim = Simulation(machine)
        source = ServerSource(machine, 0, rate_per_s=trace.rate_fn(),
                              max_rate_per_s=trace.max_rate_per_s, rng=3)
        source.attach(sim)
        sim.run_for(1.0)
        assert source.issued > 0
        assert all(r.arrival_s >= 0.5 for r in source.records)


# ---------------------------------------------------------------------------
# Thinning exactness (property)


class TestThinningExactness:
    def test_count_moments_match_inhomogeneous_poisson(self):
        # rate(t): 0 on [0, 0.25), 160 on [0.25, 0.75), 0 after —
        # Lambda = 80 expected arrivals per run.  Over N seeded runs the
        # per-run counts must match Poisson(80) in mean and variance
        # (thinning at max_rate=160 with zero-rate windows included).
        def rate(t):
            return 160.0 if 0.25 <= t < 0.75 else 0.0

        spec = RequestSpec(instructions=1e5)
        counts = []
        for seed in range(40):
            machine = SMPMachine(MachineConfig(
                num_cores=1,
                core_config=CoreConfig(latency_jitter_sigma=0.0,
                                       idle_style=IdleStyle.HALT)),
                seed=seed)
            sim = Simulation(machine)
            source = ServerSource(machine, 0, rate_per_s=rate,
                                  max_rate_per_s=160.0, spec=spec,
                                  rng=1000 + seed)
            source.attach(sim)
            sim.run_for(1.0)
            counts.append(source.issued)
            assert all(0.25 <= r.arrival_s < 0.75 for r in source.records)
        counts = np.array(counts, dtype=float)
        lam = 80.0
        n = counts.size
        # Mean of n Poisson(lam) draws: se = sqrt(lam/n); 4-sigma band.
        assert abs(counts.mean() - lam) < 4.0 * math.sqrt(lam / n)
        # Variance ~ lam; chi-square 99.9% band for n-1 dof is roughly
        # lam * [0.45, 1.8] at n = 40.
        assert 0.45 * lam < counts.var(ddof=1) < 1.8 * lam

    def test_buffered_draws_match_generator_stream(self):
        # BlockedDraws must reproduce the plain-Generator arrival stream:
        # it changes the batching, not the distribution.
        a = BlockedDraws(123)
        rng = np.random.default_rng(123)
        first = [a.exponential(2.0) for _ in range(300)]
        expected = rng.exponential(1.0, 256) * 2.0
        np.testing.assert_allclose(first[:256], expected)


# ---------------------------------------------------------------------------
# The latency model


class TestLatencyModel:
    SIG = RequestSpec().signature(POWER4_LATENCIES)

    def test_service_time_decreases_with_frequency(self):
        spec = RequestSpec()
        times = [service_time_s(self.SIG, spec.instructions, f)
                 for f in POWER4_TABLE.freqs_hz]
        assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))

    def test_mm1_quantile_blows_up_at_saturation(self):
        assert mm1_response_quantile_s(0.002, 499.0, 99.0) < math.inf
        assert mm1_response_quantile_s(0.002, 500.0, 99.0) == math.inf
        with pytest.raises(ModelError):
            mm1_response_quantile_s(0.002, 100.0, 100.0)

    def test_floor_monotone_in_rate_and_target(self):
        spec = RequestSpec()
        floors_by_rate = [
            frequency_floor_hz(POWER4_TABLE, self.SIG, spec.instructions,
                               rate, 0.02)
            for rate in (50.0, 200.0, 400.0, 550.0)
        ]
        assert all(b >= a for a, b in zip(floors_by_rate,
                                          floors_by_rate[1:]))
        tight = frequency_floor_hz(POWER4_TABLE, self.SIG,
                                   spec.instructions, 300.0, 0.005)
        loose = frequency_floor_hz(POWER4_TABLE, self.SIG,
                                   spec.instructions, 300.0, 0.5)
        assert tight >= loose

    def test_floor_is_fmax_when_target_unreachable(self):
        spec = RequestSpec()
        floor = frequency_floor_hz(POWER4_TABLE, self.SIG,
                                   spec.instructions, 5000.0, 0.001)
        assert floor == POWER4_TABLE.f_max_hz

    def test_prediction_upper_bounds_simulated_p99(self):
        # M/M/1 is the conservative closure of the simulator's
        # near-deterministic service: predicted p99 must sit at or above
        # the simulated p99, and within an order of magnitude of it.
        rate = 300.0
        machine = SMPMachine(MachineConfig(
            num_cores=1,
            core_config=CoreConfig(latency_jitter_sigma=0.0,
                                   idle_style=IdleStyle.HALT)), seed=21)
        sim = Simulation(machine)
        source = ServerSource(machine, 0, rate_per_s=constant_rate(rate),
                              max_rate_per_s=rate, rng=22)
        source.attach(sim)
        sim.run_for(4.0)
        simulated = source.censored_latency_percentile_s(99.0)
        predicted = predicted_latency_quantile_s(
            self.SIG, RequestSpec().instructions, rate,
            machine.cores[0].frequency_setting_hz, percentile=99.0)
        assert predicted >= simulated
        assert predicted < 10.0 * simulated


# ---------------------------------------------------------------------------
# Frequency floors through the schedulers


class TestSchedulerFloors:
    def test_floors_respected_under_step2_pressure(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        views = [pview(0, 0, sig(10.0)), pview(0, 1, sig(10.0)),
                 pview(1, 0, sig(10.0)), pview(1, 1, sig(10.0))]
        floors = {0: mhz(800)}
        schedule = sched.schedule(views, power_limit_w=330.0,
                                  min_freqs_hz=floors)
        for a in schedule.assignments:
            if a.node_id == 0:
                assert a.freq_hz >= mhz(800)
        # Node 1 absorbed the cut node 0 refused.
        assert min(a.freq_hz for a in schedule.assignments
                   if a.node_id == 1) < mhz(800)

    def test_budget_below_floors_flags_infeasible(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        views = [pview(0, 0, sig(10.0)), pview(1, 0, sig(10.0))]
        floors = {0: ghz(1.0), 1: ghz(1.0)}
        schedule = sched.schedule(views, power_limit_w=150.0,
                                  min_freqs_hz=floors,
                                  on_infeasible="floor")
        assert schedule.infeasible
        assert all(a.freq_hz == ghz(1.0) for a in schedule.assignments)

    def test_none_and_empty_floors_identical_to_default(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        views = [pview(0, i, sig(0.1)) for i in range(3)]
        base = sched.schedule(views, power_limit_w=200.0)
        for floors in (None, {}):
            again = sched.schedule(views, power_limit_w=200.0,
                                   min_freqs_hz=floors)
            assert again.assignments == base.assignments
            assert again.total_power_w == base.total_power_w

    def test_floor_wins_over_idle_pin_and_ceiling(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        idle = sched.schedule([pview(0, 0, sig(10.0), idle=True)],
                              min_freqs_hz={0: mhz(800)})
        assert idle.assignments[0].freq_hz == mhz(800)
        capped = sched.schedule([pview(0, 0, sig(10.0))],
                                max_freq_hz=mhz(250),
                                min_freqs_hz={0: mhz(800)})
        assert capped.assignments[0].freq_hz == mhz(800)

    def test_floor_quantizes_up_and_ignores_unknown_nodes(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        schedule = sched.schedule(
            [pview(0, 0, sig(10.0), idle=True)],
            min_freqs_hz={0: mhz(760), 99: ghz(1.0)})
        assert schedule.assignments[0].freq_hz == mhz(800)

    def test_floor_must_be_positive(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        with pytest.raises(Exception):
            sched.schedule([pview(0, 0, sig(10.0))],
                           min_freqs_hz={0: -1.0})

    def test_nested_respects_floors_inside_node_limits(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        views = [pview(0, 0, sig(10.0)), pview(0, 1, sig(10.0)),
                 pview(1, 0, sig(10.0)), pview(1, 1, sig(10.0))]
        schedule = sched.schedule(
            views, 400.0, node_limits_w={0: 170.0, 1: 170.0},
            min_freqs_hz={0: mhz(700)})
        for a in schedule.assignments:
            if a.node_id == 0:
                assert a.freq_hz >= mhz(700)

    def test_nested_floors_none_identical_to_default(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        views = [pview(0, 0, sig(10.0)), pview(1, 0, sig(0.1))]
        base = sched.schedule(views, 250.0, node_limits_w={0: 120.0})
        again = sched.schedule(views, 250.0, node_limits_w={0: 120.0},
                               min_freqs_hz=None)
        assert again.assignments == base.assignments


# ---------------------------------------------------------------------------
# Fleet traffic


class TestFleetTrafficSource:
    def _traffic(self, cluster, rate=200.0, **kwargs):
        return FleetTrafficSource(
            cluster, rate_per_s=constant_rate(rate), max_rate_per_s=rate,
            seed=5, **kwargs)

    def test_one_stream_per_core_and_attach_detach(self):
        cluster = serving_cluster(nodes=2, procs=2)
        traffic = self._traffic(cluster)
        assert traffic.num_streams == 4
        sim = Simulation(cluster.machines)
        traffic.attach(sim)
        with pytest.raises(WorkloadError):
            traffic.attach(sim)
        sim.run_for(0.5)
        issued = traffic.issued
        assert issued > 0
        traffic.detach()
        sim.run_for(0.5)
        assert traffic.issued == issued

    def test_digests_merge_upward(self):
        cluster = serving_cluster(nodes=2, procs=1)
        traffic = self._traffic(cluster)
        sim = Simulation(cluster.machines)
        traffic.attach(sim)
        sim.run_for(1.0)
        fleet = traffic.fleet_digest()
        per_node = [traffic.node_digest(n.node_id)
                    for n in cluster.nodes]
        assert fleet.count == sum(d.count for d in per_node)
        assert fleet.count == traffic.completed
        with pytest.raises(WorkloadError):
            traffic.node_digest(999)

    def test_censored_digest_counts_in_flight(self):
        cluster = serving_cluster(nodes=1, procs=1, seed=3)
        traffic = FleetTrafficSource(
            cluster, rate_per_s=constant_rate(700.0), max_rate_per_s=700.0,
            seed=6)
        sim = Simulation(cluster.machines)
        traffic.attach(sim)
        sim.run_for(1.0)
        assert traffic.in_flight > 0
        raw = traffic.fleet_digest()
        censored = traffic.fleet_digest(censored=True, horizon_s=1.0)
        assert censored.count == raw.count + traffic.in_flight

    def test_node_demands_reports_per_core_rate(self):
        cluster = serving_cluster(nodes=2, procs=2)
        traffic = self._traffic(cluster, rate=400.0)
        demands = traffic.node_demands(0.0)
        assert set(demands) == {n.node_id for n in cluster.nodes}
        for demand in demands.values():
            assert demand.rate_per_core_per_s == pytest.approx(100.0)
            assert demand.instructions == RequestSpec().instructions

    def test_per_node_spec_mapping(self):
        cluster = serving_cluster(nodes=2, procs=2)
        lean = RequestSpec(name="frontend", instructions=1e6)
        heavy = RequestSpec(name="backend", instructions=8e6,
                            n_mem_per_instr=0.004)
        specs = {cluster.nodes[0].node_id: lean,
                 cluster.nodes[1].node_id: heavy}
        traffic = self._traffic(cluster, rate=400.0, spec=specs)
        assert traffic.spec is None   # no single fleet-wide shape
        # Every stream serves its own node's spec.
        for node_id, sources in traffic._by_node.items():
            assert all(s.spec is specs[node_id] for s in sources)
        # node_demands carries the per-node signature and instructions.
        demands = traffic.node_demands(0.0)
        for node_id, spec in specs.items():
            assert demands[node_id].instructions == spec.instructions
            assert demands[node_id].signature == \
                spec.signature(POWER4_LATENCIES)

    def test_per_node_specs_shape_the_requests_served(self):
        cluster = serving_cluster(nodes=2, procs=1)
        specs = {cluster.nodes[0].node_id: RequestSpec(instructions=5e5),
                 cluster.nodes[1].node_id: RequestSpec(instructions=2e7)}
        traffic = self._traffic(cluster, rate=60.0, spec=specs)
        sim = Simulation(cluster.machines)
        traffic.attach(sim)
        sim.run_for(1.0)
        light = traffic.node_digest(cluster.nodes[0].node_id)
        heavy = traffic.node_digest(cluster.nodes[1].node_id)
        assert light.count > 0 and heavy.count > 0
        # 40x the instructions: visibly slower requests on node 1.
        assert heavy.mean > light.mean * 10

    def test_per_node_spec_mapping_must_cover_served_nodes(self):
        cluster = serving_cluster(nodes=2, procs=1)
        only_first = {cluster.nodes[0].node_id: RequestSpec()}
        with pytest.raises(WorkloadError):
            self._traffic(cluster, spec=only_first)

    def test_per_node_spec_mapping_rejects_non_specs(self):
        cluster = serving_cluster(nodes=1, procs=1)
        with pytest.raises(WorkloadError):
            self._traffic(cluster,
                          spec={cluster.nodes[0].node_id: "heavy"})

    def test_seeded_reproducibility(self):
        def run():
            cluster = serving_cluster(nodes=2, procs=1)
            traffic = self._traffic(cluster)
            sim = Simulation(cluster.machines)
            traffic.attach(sim)
            sim.run_for(1.0)
            return traffic.issued, traffic.fleet_digest().value_dict()

        a, b = run(), run()
        assert a == b

    def test_fleet_histogram_exports(self):
        """A fleet latency histogram is a telemetry histogram: its
        snapshot rebuilds through ``registry_from_snapshot`` and renders
        as a valid Prometheus histogram."""
        cluster = serving_cluster(nodes=2, procs=1)
        traffic = self._traffic(cluster, rate=400.0)
        sim = Simulation(cluster.machines)
        traffic.attach(sim)
        sim.run_for(1.0)
        fleet = traffic.fleet_digest(censored=True)
        assert fleet.count > 0
        snapshot = {fleet.name: {"type": fleet.kind, "help": "",
                                 "series": [{"labels": {},
                                             **fleet.value_dict()}]}}
        registry = registry_from_snapshot(snapshot)
        assert registry.snapshot() == snapshot
        lines = prometheus_text(registry).splitlines()
        cumulative = [int(line.rsplit(" ", 1)[1]) for line in lines
                      if line.startswith("request_latency_seconds_bucket")]
        assert len(cumulative) == len(REQUEST_LATENCY_BUCKETS_S) + 1
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == fleet.count
        assert 'request_latency_seconds_bucket{le="+Inf"} ' \
            f"{fleet.count}" in lines
        assert f"request_latency_seconds_count {fleet.count}" in lines


# ---------------------------------------------------------------------------
# Serving latency pinned bit for bit


class TestServingLatencyPins:
    """A short flash crowd (3 nodes x 2 jittered cores, 1.5 s) whose latency
    histograms are pinned as ``float.hex`` golden values: bucketing, the
    summation order of ``observe`` and ``observe_many``, the merge order,
    interpolation and the max clamp all have to reproduce exactly."""

    HORIZON_S = 1.5
    PERCENTILES = (1.0, 50.0, 90.0, 99.0, 99.9, 100.0)
    # The last target lies past the last finite bucket bound (30 s).
    TARGETS_S = (0.003, 0.0075, 0.02, 0.1, 0.33, 45.0)
    GOLDEN = {
        "raw": dict(
            counts=(0, 0, 0, 0, 86, 77, 62, 102, 328, 148, 0, 0, 0, 0, 0, 0),
            count=803,
            sum="0x1.c33d1f06b2148p+6", max="0x1.5ba8125c84180p-2",
            percentiles=(
                "0x1.6646b2e8d302cp-8", "0x1.12935b2935b2ap-3",
                "0x1.5ba8125c84180p-2", "0x1.5ba8125c84180p-2",
                "0x1.5ba8125c84180p-2", "0x1.5ba8125c84180p-2",
            ),
            fractions=(
                "0x0.0p+0", "0x1.b6accac278820p-5",
                "0x1.5e42861c446fcp-3", "0x1.a0ff0b287cf8bp-2",
                "0x1.bfd4be9e9c924p-1", "0x1.0000000000000p+0",
            ),
        ),
        "censored": dict(
            counts=(0, 0, 0, 2, 91, 89, 81, 119, 445, 234, 0, 0, 0, 0, 0, 0),
            count=1061,
            sum="0x1.41b7297346e40p+7", max="0x1.5e0f7e1b63e30p-2",
            percentiles=(
                "0x1.66aefe64a2b4bp-8", "0x1.3350a7859489ap-3",
                "0x1.5e0f7e1b63e30p-2", "0x1.5e0f7e1b63e30p-2",
                "0x1.5e0f7e1b63e30p-2", "0x1.5e0f7e1b63e30p-2",
            ),
            fractions=(
                "0x1.8b50ed090620fp-12", "0x1.6ebf93e7df2f8p-5",
                "0x1.260ac6fa20f9ap-3", "0x1.70adb9102a773p-2",
                "0x1.b336e7f56c15ap-1", "0x1.0000000000000p+0",
            ),
        ),
        "node": dict(
            counts=(0, 0, 0, 1, 30, 28, 22, 37, 147, 74, 0, 0, 0, 0, 0, 0),
            count=339,
            sum="0x1.9a27d7326b3e1p+5", max="0x1.4808e8eb1ceb4p-2",
            percentiles=(
                "0x1.61c9011e9c5bap-8", "0x1.386cab5cfef48p-3",
                "0x1.4808e8eb1ceb4p-2", "0x1.4808e8eb1ceb4p-2",
                "0x1.4808e8eb1ceb4p-2", "0x1.4808e8eb1ceb4p-2",
            ),
            fractions=(
                "0x1.3550801355080p-11", "0x1.82a4a0182a49fp-5",
                "0x1.2c0d16e81626cp-3", "0x1.646fc39646fc4p-2",
                "0x1.b4001eee73352p-1", "0x1.0000000000000p+0",
            ),
        ),
    }


    @pytest.fixture(scope="class")
    def histograms(self):
        cluster = Cluster.homogeneous(
            3, machine_config=MachineConfig(
                num_cores=2,
                core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=17)
        rate = flash_crowd_rate(100.0, 1100.0, t_start_s=0.4, ramp_s=0.3,
                                hold_s=0.5, decay_s=0.6)
        traffic = FleetTrafficSource(
            cluster, rate_per_s=rate, max_rate_per_s=1100.0,
            spec=RequestSpec(instructions=6e6), seed=2005)
        sim = Simulation(cluster.machines)
        traffic.attach(sim)
        sim.run_for(self.HORIZON_S)
        assert traffic.in_flight > 0     # the censored tail is non-trivial
        return {
            "raw": traffic.fleet_digest(),
            "censored": traffic.fleet_digest(censored=True,
                                             horizon_s=self.HORIZON_S),
            "node": traffic.node_digest(cluster.nodes[1].node_id,
                                        censored=True,
                                        horizon_s=self.HORIZON_S),
        }

    @pytest.mark.parametrize("key", ["raw", "censored", "node"])
    def test_bit_identical(self, histograms, key):
        h, golden = histograms[key], self.GOLDEN[key]
        assert h.counts == golden["counts"]
        assert h.count == golden["count"]
        assert float.hex(h.sum) == golden["sum"]
        assert float.hex(h.max) == golden["max"]
        assert tuple(float.hex(h.percentile(p))
                     for p in self.PERCENTILES) == golden["percentiles"]
        assert tuple(float.hex(h.fraction_below(t))
                     for t in self.TARGETS_S) == golden["fractions"]


# ---------------------------------------------------------------------------
# SLO mode through the coordinator


class TestCoordinatorSLO:
    def _setup(self, *, target_s, budget_w=None, nodes=2, rate=500.0,
               seed=0):
        cluster = serving_cluster(nodes=nodes, procs=1, seed=seed)
        traffic = FleetTrafficSource(
            cluster, rate_per_s=constant_rate(rate), max_rate_per_s=rate,
            seed=seed + 9)
        coordinator = ClusterCoordinator(
            cluster,
            CoordinatorConfig(power_limit_w=budget_w,
                              slo_p99_target_s=target_s),
            seed=seed + 1)
        coordinator.bind_serving(traffic)
        sim = Simulation(cluster.machines)
        coordinator.attach(sim)
        traffic.attach(sim)
        return sim, coordinator, traffic

    def test_scheduled_frequencies_respect_floors(self):
        sim, coordinator, _ = self._setup(target_s=0.01, budget_w=160.0)
        sim.run_for(1.0)
        floors = coordinator.slo_floors_hz
        assert floors and max(floors.values()) > POWER4_TABLE.f_min_hz
        for a in coordinator.last_schedule.assignments:
            assert a.freq_hz >= floors[a.node_id] - 1e-6
        assert coordinator.slo_floor_violations == 0

    def test_tight_budget_counts_infeasible_passes(self):
        sim, coordinator, _ = self._setup(target_s=0.005, budget_w=100.0)
        sim.run_for(1.0)
        assert coordinator.slo_infeasible_passes > 0
        assert coordinator.slo_floor_violations == 0

    def test_unbound_serving_raises(self):
        cluster = serving_cluster()
        coordinator = ClusterCoordinator(
            cluster, CoordinatorConfig(slo_p99_target_s=0.02), seed=1)
        sim = Simulation(cluster.machines)
        coordinator.attach(sim)
        with pytest.raises(ClusterError):
            coordinator.run_global_pass(0.0)

    def test_no_target_keeps_slo_machinery_idle(self):
        sim, coordinator, _ = self._setup(target_s=None)
        sim.run_for(1.0)
        assert coordinator.slo_floors_hz == {}
        assert coordinator.slo_floor_violations == 0
        assert coordinator.slo_infeasible_passes == 0

    def test_config_validation(self):
        with pytest.raises(Exception):
            CoordinatorConfig(slo_p99_target_s=-1.0)

    def test_fast_path_invalidated_by_floor_change(self):
        # The reschedule fast path may only reuse a schedule produced
        # under the same floors; a rate change that moves the floor must
        # force a fresh pass.
        sim, coordinator, traffic = self._setup(
            target_s=0.03, budget_w=None, rate=500.0)
        sim.run_for(0.35)
        floors_before = dict(coordinator.slo_floors_hz)
        assert floors_before
        # Drop the demand to (almost) nothing: the floor falls.
        slow = constant_rate(1.0)
        for source in traffic.sources:
            source.rate = slow
        sim.run_for(0.35)
        assert coordinator.slo_floors_hz != floors_before
        assert all(f <= b for f, b in zip(
            coordinator.slo_floors_hz.values(), floors_before.values()))

    def test_degraded_lost_node_pinned_at_floor(self):
        cluster = serving_cluster(nodes=2, procs=1)
        coordinator = ClusterCoordinator(cluster, CoordinatorConfig(),
                                         seed=1)
        lost_id = cluster.nodes[1].node_id
        live_id = cluster.nodes[0].node_id
        views = [pview(live_id, 0, sig(10.0))]
        schedule = coordinator._schedule(
            ViewBatch.from_views(views), [lost_id],
            {lost_id: mhz(760), live_id: mhz(700)})
        pinned = [a for a in schedule.assignments if a.node_id == lost_id]
        assert pinned and all(a.freq_hz == mhz(800) for a in pinned)
        assert all(a.eps_freq_hz == mhz(800) for a in pinned)
        live = [a for a in schedule.assignments if a.node_id == live_id]
        assert all(a.freq_hz >= mhz(700) for a in live)

    def test_degraded_saturated_budget_still_honours_floors(self):
        cluster = serving_cluster(nodes=2, procs=1)
        coordinator = ClusterCoordinator(
            cluster, CoordinatorConfig(power_limit_w=10.0), seed=1)
        lost_id = cluster.nodes[1].node_id
        live_id = cluster.nodes[0].node_id
        views = [pview(live_id, 0, sig(10.0))]
        schedule = coordinator._schedule(
            ViewBatch.from_views(views), [lost_id], {live_id: mhz(800)})
        assert schedule.infeasible
        live = [a for a in schedule.assignments if a.node_id == live_id]
        assert all(a.freq_hz >= mhz(800) for a in live)


# ---------------------------------------------------------------------------
# SLO mode through the hierarchy


class TestHierarchySLO:
    def test_bind_serving_reaches_every_shard(self):
        cluster = serving_cluster(nodes=4, procs=1)
        traffic = FleetTrafficSource(
            cluster, rate_per_s=constant_rate(400.0), max_rate_per_s=400.0,
            seed=5)
        allocator = FleetAllocator(
            cluster, CoordinatorConfig(slo_p99_target_s=0.01),
            fleet=FleetConfig(shard_size=2), seed=3)
        allocator.bind_serving(traffic)
        assert allocator.num_shards == 2
        sim = Simulation(cluster.machines)
        allocator.attach(sim)
        traffic.attach(sim)
        sim.run_for(1.0)
        for shard in allocator.shards:
            assert shard.slo_floors_hz
            assert shard.slo_floor_violations == 0
            for a in shard.last_schedule.assignments:
                assert a.freq_hz >= shard.slo_floors_hz[a.node_id] - 1e-6

    def test_summary_ladder_flattened_at_floor(self):
        cluster = serving_cluster(nodes=4, procs=1)
        traffic = FleetTrafficSource(
            cluster, rate_per_s=constant_rate(400.0), max_rate_per_s=400.0,
            seed=5)
        allocator = FleetAllocator(
            cluster, CoordinatorConfig(slo_p99_target_s=0.01),
            fleet=FleetConfig(shard_size=2), seed=3)
        allocator.bind_serving(traffic)
        sim = Simulation(cluster.machines)
        allocator.attach(sim)
        traffic.attach(sim)
        sim.run_for(1.0)
        table = POWER4_TABLE
        for shard in allocator.shards:
            floor_idx = min(
                table.index_of(table.quantize_up(f))
                for f in shard.slo_floors_hz.values())
            ladder = shard.make_summary(sim.now_s).capped_demand_w
            # Below the lowest floor rung the ladder cannot fall further:
            # those rungs all cost at least the floor's power.
            assert ladder[0] == pytest.approx(ladder[floor_idx])
            assert all(b >= a - 1e-9 for a, b in zip(ladder, ladder[1:]))


# ---------------------------------------------------------------------------
# The curtailment experiment


class TestCurtailmentExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.curtailment import run
        return run(seed=2005, fast=True)

    def test_reports_three_plus_budget_levels(self, result):
        table = result.tables[0]
        slo_rows = [r for r in table.rows if str(r[0]).startswith("slo@")]
        assert len(slo_rows) >= 3
        budgets = [r[1] for r in slo_rows]
        assert budgets == sorted(budgets)
        assert any(str(r[0]).startswith("no-slo@") for r in table.rows)

    def test_floors_respected_and_compliance_monotone(self, result):
        assert result.scalars["floors_respected"] == 1.0
        assert result.scalars["compliance_monotone"] == 1.0
        assert result.scalars["compliance_min_budget"] > \
            result.scalars["no_slo_compliance"]

    def test_energy_scales_with_budget(self, result):
        assert result.scalars["slo_energy_j_max_budget"] > \
            result.scalars["slo_energy_j_min_budget"]

    def test_serving_runs_at_fleet_kernel_cost(self, result):
        # ONCE-request lanes are resident: the whole sweep runs through
        # the fleet columns with no transient fallbacks.
        assert result.scalars["fleet_residency"] == 1.0
        assert result.scalars["fleet_transient_fallbacks"] == 0.0

    def test_deterministic(self, result):
        from repro.experiments.curtailment import run
        again = run(seed=2005, fast=True)
        assert again.scalars == result.scalars
        assert again.tables[0].rows == result.tables[0].rows


# ---------------------------------------------------------------------------
# CLI flag


class TestCliSloFlag:
    def test_flag_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["run", "curtailment", "--fast", "--slo-p99-ms", "25"])
        assert args.slo_p99_ms == 25.0
        assert build_parser().parse_args(
            ["run", "curtailment"]).slo_p99_ms is None

    def test_rejected_for_non_serving_experiments(self, capsys):
        from repro.cli import main
        assert main(["run", "table1", "--slo-p99-ms", "25"]) == 1
        assert "does not support" in capsys.readouterr().err

    def test_non_positive_target_rejected(self, capsys):
        from repro.cli import main
        assert main(["run", "curtailment", "--fast",
                     "--slo-p99-ms", "0"]) == 1
        assert "positive" in capsys.readouterr().err
