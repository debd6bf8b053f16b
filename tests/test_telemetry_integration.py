"""Telemetry wired through the daemon, cluster, simulator, and CLI.

End-to-end assertions that the instrumentation actually fires on the
paper's scenarios: scheduler passes under an enabled backend, coordinator
round trips counting protocol bytes, budget-breach events under a tight
power cap, PSU-failure events from the supply bank, and the ``--telemetry``
CLI flag producing the JSONL + Prometheus artifacts.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.cli import main as cli_main
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.hierarchy import FleetAllocator, FleetConfig
from repro.core.daemon import (
    PER_CORE_OVERHEAD,
    DaemonConfig,
    FvsstDaemon,
    OverheadModel,
)
from repro.exec.runner import ParallelRunner
from repro.power.supply import SupplyBank
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig, SMPMachine
from repro.telemetry import (
    EVENT_BUDGET_BREACH,
    EVENT_CURTAILMENT,
    EVENT_FREQUENCY_CHANGE,
    EVENT_PSU_FAILURE,
    EVENT_PSU_RESTORED,
    JsonlSink,
    Telemetry,
    prometheus_text,
    read_jsonl,
    use_telemetry,
)
from repro.workloads.profiles import profile_by_name
from repro.workloads.tiers import tiered_cluster_assignment


def quiet_machine(num_cores=2) -> SMPMachine:
    cfg = MachineConfig(
        num_cores=num_cores,
        core_config=CoreConfig(latency_jitter_sigma=0.0),
    )
    return SMPMachine(cfg, seed=0)


def quiet_cluster(nodes=2, procs=2) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ),
        seed=0,
    )


def series_value(snapshot, name):
    return snapshot["metrics"][name]["series"][0]["value"]


class TestDaemonInstrumentation:
    def _run(self, telemetry, *, seconds=1.0, **cfg_kwargs):
        machine = quiet_machine()
        machine.assign(0, profile_by_name("mcf").job(loop=True))
        machine.assign(1, profile_by_name("gzip").job(loop=True))
        cfg = DaemonConfig(counter_noise_sigma=0.0,
                           overhead=OverheadModel(enabled=False),
                           **cfg_kwargs)
        daemon = FvsstDaemon(machine, cfg, telemetry=telemetry, seed=1)
        sim = Simulation(machine, telemetry=telemetry)
        daemon.attach(sim)
        sim.run_for(seconds)
        return machine, daemon, sim

    def test_counters_track_the_run(self):
        tel = Telemetry()
        self._run(tel)
        snap = tel.snapshot()
        # 1 s at t=10 ms sampling, pass period T = 10 t; the tick
        # scheduled exactly at the horizon has not fired yet.
        assert series_value(snap, "fvsst_sample_ticks_total") == 99
        assert series_value(snap, "fvsst_counter_samples_total") == 198
        assert series_value(snap, "fvsst_schedule_passes_total") == 9
        assert series_value(snap, "scheduler_passes_total") == 9
        assert series_value(snap, "fvsst_frequency_transitions_total") > 0
        hist = snap["metrics"]["fvsst_schedule_pass_seconds"]["series"][0]
        assert hist["count"] == 9
        assert series_value(snap, "sim_events_dispatched_total") >= 99

    def test_frequency_change_events_carry_hz(self):
        tel = Telemetry()
        self._run(tel)
        changes = tel.events.events_of(EVENT_FREQUENCY_CHANGE)
        assert changes
        first = changes[0]
        assert first.attrs["old_hz"] != first.attrs["new_hz"]
        assert {"proc", "old_hz", "new_hz"} <= set(first.attrs)

    def test_budget_breach_under_tight_cap(self):
        tel = Telemetry()
        self._run(tel, power_limit_w=120.0)
        assert tel.events.count(EVENT_BUDGET_BREACH) > 0
        snap = tel.snapshot()
        assert series_value(snap, "fvsst_budget_breaches_total") > 0
        assert series_value(snap, "fvsst_power_limit_watts") == 120.0

    def test_curtailment_event_on_limit_trigger(self):
        tel = Telemetry()
        machine, daemon, sim = self._run(tel, seconds=0.5)
        daemon.set_power_limit(100.0, sim.now_s)
        assert tel.events.count(EVENT_CURTAILMENT) == 1
        event = tel.events.events_of(EVENT_CURTAILMENT)[0]
        assert event.attrs["new_limit_w"] == 100.0

    def test_null_backend_records_nothing(self):
        machine, daemon, sim = self._run(None)  # default NullTelemetry
        assert daemon.telemetry.enabled is False
        snap = daemon.telemetry.snapshot()
        # Metric handles exist (registration is unconditional) but the
        # guarded hot paths never touched them.
        assert series_value(snap, "fvsst_sample_ticks_total") == 0
        assert series_value(snap, "fvsst_schedule_passes_total") == 0
        assert snap["event_counts"] == {}
        assert snap["spans_finished"] == 0
        # The run itself is unaffected.
        assert daemon.last_schedule is not None

    def test_multithreaded_daemon_instrumented(self):
        tel = Telemetry()
        machine = quiet_machine(num_cores=2)
        machine.assign(1, profile_by_name("mcf").job(loop=True))
        daemon = FvsstDaemon(
            machine, DaemonConfig(counter_noise_sigma=0.0, daemon_core=0,
                                  overhead=PER_CORE_OVERHEAD),
            telemetry=tel, seed=5)
        sim = Simulation(machine)
        daemon.attach(sim)
        sim.run_for(1.0)
        snap = tel.snapshot()
        assert series_value(snap, "fvsst_schedule_passes_total") == 9
        assert series_value(snap, "fvsst_counter_samples_total") == 198
        # Per-core collector threads still steal cycles (mt semantics kept).
        assert all(c.overhead_executed_s > 0 for c in machine.cores)


class TestClusterInstrumentation:
    def _run(self, telemetry, *, budget=None, seconds=1.0, nodes=2, procs=2):
        cluster = quiet_cluster(nodes=nodes, procs=procs)
        cluster.assign_all(tiered_cluster_assignment(
            nodes, procs, web_nodes=0, app_nodes=1))
        coord = ClusterCoordinator(
            cluster,
            CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0),
            telemetry=telemetry,
            seed=5,
        )
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(seconds)
        return cluster, coord, sim

    def test_round_trips_and_protocol_bytes(self):
        tel = Telemetry()
        cluster, coord, _sim = self._run(tel)
        snap = tel.snapshot()
        passes = series_value(snap, "cluster_global_passes_total")
        assert passes == 10  # a collect fires at every k*T including t=T
        assert series_value(snap, "cluster_report_bytes_total") > 0
        assert series_value(snap, "cluster_command_bytes_total") > 0
        assert series_value(snap, "cluster_commands_sent_total") >= passes
        assert series_value(snap, "agent_reports_total") == 2 * passes
        delay = snap["metrics"]["cluster_collect_delay_seconds"]["series"][0]
        assert delay["count"] == passes
        assert delay["sum"] > 0  # network latency is nonzero

    def test_pass_wall_clock_cost_in_log_entries(self):
        tel = Telemetry()
        cluster, coord, _sim = self._run(tel)
        entries = coord.log.schedule_entries
        assert entries
        assert all(e.pass_wall_s is not None and e.pass_wall_s > 0
                   for e in entries)
        assert coord.last_pass_wall_s is not None

    def test_pass_wall_clock_populated_even_with_null_backend(self):
        cluster, coord, _sim = self._run(None)
        assert all(e.pass_wall_s is not None
                   for e in coord.log.schedule_entries)

    def test_budget_breach_events_under_cluster_cap(self):
        tel = Telemetry()
        cluster, coord, _sim = self._run(tel, budget=280.0, seconds=2.0)
        assert tel.events.count(EVENT_BUDGET_BREACH) > 0
        snap = tel.snapshot()
        assert series_value(snap, "cluster_budget_breaches_total") > 0
        # ... and the same breaches are visible in the Prometheus text.
        text = prometheus_text(tel.metrics)
        assert "cluster_budget_breaches_total" in text

    def test_spans_cover_every_pass(self):
        tel = Telemetry()
        cluster, coord, _sim = self._run(tel)
        spans = tel.tracer.finished_named("cluster.global_pass")
        assert len(spans) == 10
        assert all(s.sim_duration_s > 0 for s in spans)  # collect delay
        assert all(s.wall_duration_s > 0 for s in spans)


class TestSupplyAndSinkIntegration:
    def test_psu_failure_events(self):
        tel = Telemetry()
        with use_telemetry(tel):
            bank = SupplyBank.example_p630(raise_on_cascade=False)
            bank.fail_supply(0, now_s=1.0)
            bank.restore_supply(0, now_s=2.0)
        assert tel.events.count(EVENT_PSU_FAILURE) == 1
        assert tel.events.count(EVENT_PSU_RESTORED) == 1
        failure = tel.events.events_of(EVENT_PSU_FAILURE)[0]
        assert failure.sim_time_s == 1.0
        assert failure.attrs["cascade"] is False

    def test_jsonl_sink_captures_a_cluster_run(self, tmp_path):
        tel = Telemetry()
        path = tmp_path / "telemetry.jsonl"
        with JsonlSink(path, tel) as sink:
            cluster = quiet_cluster()
            cluster.assign_all(tiered_cluster_assignment(
                2, 2, web_nodes=0, app_nodes=1))
            coord = ClusterCoordinator(
                cluster,
                CoordinatorConfig(power_limit_w=280.0,
                                  counter_noise_sigma=0.0),
                telemetry=tel, seed=5)
            sim = Simulation(cluster.machines)
            coord.attach(sim)
            sim.run_for(1.0)
            sink.write_snapshot()
        records = read_jsonl(path)
        kinds = [r for r in records if r["type"] == "event"]
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"] == "metrics"]
        assert any(r["kind"] == EVENT_BUDGET_BREACH for r in kinds)
        assert any(r["name"] == "cluster.global_pass" for r in spans)
        assert len(metrics) == 1
        assert "cluster_budget_breaches_total" in metrics[0]["snapshot"]


class TestCliTelemetry:
    def test_run_with_telemetry_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "tel"
        rc = cli_main(["run", "worked_example", "--fast",
                       "--telemetry", str(out)])
        assert rc == 0
        assert (out / "telemetry.jsonl").exists()
        prom = (out / "metrics.prom").read_text()
        assert "# TYPE" in prom
        captured = capsys.readouterr().out
        assert "telemetry metrics" in captured
        assert f"telemetry written to {out}" in captured
        # The stream parses back.
        records = read_jsonl(out / "telemetry.jsonl")
        assert any(r["type"] == "metrics" for r in records)


class TestMetricCatalog:
    @staticmethod
    def _catalog() -> str:
        return (Path(__file__).resolve().parents[1] / "docs"
                / "OBSERVABILITY.md").read_text()

    @staticmethod
    def _registered(tmp_path) -> dict:
        """Every metric the control plane, the daemons, the driver with
        its fleet residency (one delegated machine included, for the
        ``reason`` series) and the experiment runner register.  Built
        under use_telemetry, so every component, the Simulation included,
        registers into the one backend."""
        class Delegated(SMPMachine):
            pass

        tel = Telemetry()
        with use_telemetry(tel):
            ClusterCoordinator(
                Cluster.homogeneous(2, seed=0),
                CoordinatorConfig(slo_p99_target_s=0.02), seed=1)
            FleetAllocator(
                Cluster.homogeneous(4, seed=0), CoordinatorConfig(),
                fleet=FleetConfig(shard_size=2), seed=2)
            machine = SMPMachine(MachineConfig(num_cores=2), seed=0)
            machine.assign(0, profile_by_name("gzip").job(loop=True))
            daemon = FvsstDaemon(machine, DaemonConfig(), seed=3)
            FvsstDaemon(
                SMPMachine(MachineConfig(num_cores=2), seed=0),
                DaemonConfig(overhead=PER_CORE_OVERHEAD), seed=4)
            sim = Simulation([machine,
                              Delegated(MachineConfig(num_cores=1), seed=5)])
            daemon.attach(sim)
            sim.run_for(0.05)
            ParallelRunner(cache_dir=tmp_path)
            return tel.snapshot()["metrics"]

    def test_every_cluster_metric_is_documented(self, tmp_path):
        # docs/OBSERVABILITY.md names every metric the control plane, the
        # daemons, the driver, the fleet advance and the experiment runner
        # register, each in full (no "/ _stale / _lost" shorthand).
        catalog = self._catalog()
        names = self._registered(tmp_path)
        for name in ("cluster_slo_floor_hz", "shard_committed_watts",
                     "fvsst_schedule_passes_total",
                     "sim_events_dispatched_total",
                     "sim_fleet_advances_total", "exec_pool_workers",
                     "exec_cache_hits_total"):
            assert name in names
        missing = [name for name in names if f"`{name}`" not in catalog]
        assert not missing, f"undocumented metrics: {missing}"

    def test_every_documented_label_is_registered(self, tmp_path):
        # A catalog row's labels, written ``label `x` `` in its meaning
        # or ``name{x="..."}`` in its name, must exist on a registered
        # series of that metric.
        names = self._registered(tmp_path)
        documented = []
        for row in self._catalog().splitlines():
            m = re.match(r"\| `(\w+)(?:\{(\w+)=)?", row)
            if m is None or m.group(1) not in names:
                continue
            labels = re.findall(r"label `(\w+)`", row)
            if m.group(2):
                labels.append(m.group(2))
            documented += [(m.group(1), label) for label in labels]
        assert ("sim_fleet_fallbacks_total", "reason") in documented
        unregistered = [
            (name, label) for name, label in documented
            if not any(label in series["labels"]
                       for series in names[name]["series"])]
        assert not unregistered, f"documented, never registered: {unregistered}"
