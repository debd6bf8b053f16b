"""The fault-injection layer and the control-plane bugfix regressions.

Unit coverage of :mod:`repro.sim.network` faults, :mod:`repro.cluster.faults`,
and the three latent bugs this layer exposed:

* ``apply_command`` retuning by position instead of processor id;
* ``make_report`` destroying counter windows before delivery confirmation;
* the zero-interval reports of a pass firing before the first sample.

Coordinator-level fault *scenarios* (budget safety under loss, partitions,
recovery convergence) live in tests/test_failure_injection.py.
"""

import numpy as np
import pytest

from repro.cluster.agent import NodeAgent
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import (
    FAULT_SCENARIOS,
    CrashWindow,
    FaultSchedule,
    fault_scenario,
)
from repro.cluster.protocol import REPORT_FIELDS, FrequencyCommand, NodeReport
from repro.errors import ClusterError
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.sim.network import Network, NetworkConfig, NetworkFaults, PartitionWindow
from repro.telemetry import Telemetry
from repro.units import ghz, mhz
from repro.workloads.tiers import tiered_cluster_assignment

INSTR = REPORT_FIELDS.index("instructions")
INTERVAL = REPORT_FIELDS.index("interval_s")


def quiet_cluster(nodes=2, procs=2, seed=0) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ),
        seed=seed,
    )


class TestNetworkFaults:
    def test_no_faults_try_send_equals_send(self):
        net = Network(NetworkConfig(base_latency_s=1e-4, per_byte_s=1e-8))
        assert net.try_send(1000, now_s=0.0, node_id=0) == \
            pytest.approx(net.delay_for(1000))
        assert net.messages_dropped == 0

    def test_loss_prob_one_drops_everything(self):
        net = Network(faults=NetworkFaults(loss_prob=1.0, seed=1))
        for _ in range(10):
            assert net.try_send(100, now_s=0.0, node_id=0) is None
        assert net.messages_dropped == 10
        assert net.messages_sent == 10  # still put on the wire

    def test_loss_prob_zero_drops_nothing(self):
        net = Network(faults=NetworkFaults(loss_prob=0.0, seed=1))
        assert all(net.try_send(1, now_s=0.0, node_id=0) is not None
                   for _ in range(10))

    def test_drop_pattern_deterministic_in_seed(self):
        def pattern(seed):
            f = NetworkFaults(loss_prob=0.5, seed=seed)
            return [f.drops(0, 0.0) for _ in range(64)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_jitter_deterministic_and_positive(self):
        a = NetworkFaults(jitter_sigma=0.3, seed=5)
        b = NetworkFaults(jitter_sigma=0.3, seed=5)
        factors = [a.jitter_factor() for _ in range(16)]
        assert factors == [b.jitter_factor() for _ in range(16)]
        assert all(f > 0 for f in factors)
        assert NetworkFaults(jitter_sigma=0.0, seed=5).jitter_factor() == 1.0

    def test_partition_cuts_only_named_nodes_in_window(self):
        w = PartitionWindow(1.0, 2.0, node_ids=frozenset({1}))
        f = NetworkFaults(partitions=(w,), seed=0)
        assert f.drops(1, 1.5)
        assert not f.drops(0, 1.5)      # other node unaffected
        assert not f.drops(1, 0.5)      # before the window
        assert not f.drops(1, 2.0)      # half-open interval
        assert NetworkFaults(
            partitions=(PartitionWindow(1.0, 2.0),), seed=0).drops(42, 1.5)

    def test_validation(self):
        with pytest.raises(ClusterError):
            NetworkFaults(loss_prob=1.5)
        with pytest.raises(ClusterError):
            PartitionWindow(2.0, 2.0)
        with pytest.raises(ClusterError):
            CrashWindow(node_id=0, start_s=1.0, end_s=0.5)
        with pytest.raises(ClusterError):
            CrashWindow(node_id=-1, start_s=0.0, end_s=1.0)


class TestFaultSchedule:
    def test_node_crashed_windows(self):
        plan = FaultSchedule(crashes=(
            CrashWindow(node_id=1, start_s=1.0, end_s=2.0),
        ))
        assert plan.node_crashed(1, 1.5)
        assert not plan.node_crashed(1, 2.5)
        assert not plan.node_crashed(0, 1.5)

    def test_install_attaches_network_plan(self):
        cluster = quiet_cluster(nodes=1)
        plan = fault_scenario("lossy", seed=3)
        plan.install(cluster)
        assert cluster.network.faults is plan.network

    def test_scenarios_registry(self):
        assert fault_scenario("none", seed=1) is None
        for name in FAULT_SCENARIOS:
            if name == "none":
                continue
            plan = fault_scenario(name, seed=1)
            assert isinstance(plan, FaultSchedule)
            assert plan.name == name
        with pytest.raises(ClusterError):
            fault_scenario("bogus")

    def test_scenario_deterministic_in_seed(self):
        a = fault_scenario("lossy", seed=9).network
        b = fault_scenario("lossy", seed=9).network
        assert [a.drops(0, 0.0) for _ in range(32)] == \
            [b.drops(0, 0.0) for _ in range(32)]

    def test_unknown_scenario_error_lists_descriptions(self):
        # The error must carry the catalog *descriptions*, not just names,
        # so a CLI user can pick without opening the source.
        with pytest.raises(ClusterError) as excinfo:
            fault_scenario("bogus")
        message = str(excinfo.value)
        for name, description in FAULT_SCENARIOS.items():
            assert name in message
            assert description in message

    def test_scenario_catalog_covers_every_scenario(self):
        from repro.cluster.faults import scenario_catalog
        catalog = scenario_catalog()
        for name, description in FAULT_SCENARIOS.items():
            assert f"{name} — {description}" in catalog


class TestCommandProcIds:
    """Regression: positional zip silently retuned the wrong cores."""

    def test_partial_command_applies_by_proc_id(self):
        # A node with an offline core: the coordinator's command excludes
        # it.  Pre-fix, frequencies were zipped positionally against
        # machine.cores, so (proc 0, proc 2) would have retuned cores 0
        # and 1 — core 1 getting proc 2's frequency, core 2 untouched.
        cluster = quiet_cluster(nodes=1, procs=3)
        machine = cluster.nodes[0].machine
        machine.core(1).offline = True
        agent = NodeAgent(cluster.nodes[0], seed=1)
        before_core1 = machine.core(1).frequency_setting_hz
        command = FrequencyCommand(
            node_id=0, time_s=0.0,
            freqs_hz=(mhz(650), mhz(500)), voltages=(1.0, 0.9),
            proc_ids=(0, 2),
        )
        agent.apply_command(command, 0.0)
        assert machine.core(0).frequency_setting_hz == mhz(650)
        assert machine.core(1).frequency_setting_hz == before_core1
        assert machine.core(2).frequency_setting_hz == mhz(500)

    def test_out_of_range_proc_id_rejected(self):
        cluster = quiet_cluster(nodes=1, procs=2)
        agent = NodeAgent(cluster.nodes[0], seed=1)
        with pytest.raises(ClusterError):
            agent.apply_command(FrequencyCommand(
                node_id=0, time_s=0.0,
                freqs_hz=(mhz(650), mhz(500)), voltages=(1.0, 0.9),
                proc_ids=(0, 2),
            ), 0.0)

    def test_command_validation(self):
        with pytest.raises(ClusterError):
            FrequencyCommand(node_id=0, time_s=0.0, freqs_hz=(ghz(1.0),),
                             voltages=(1.3,), proc_ids=(0, 1))
        with pytest.raises(ClusterError):
            FrequencyCommand(node_id=0, time_s=0.0,
                             freqs_hz=(ghz(1.0), ghz(1.0)),
                             voltages=(1.3, 1.3), proc_ids=(1, 1))
        with pytest.raises(ClusterError):
            FrequencyCommand(node_id=0, time_s=0.0, freqs_hz=(ghz(1.0),),
                             voltages=(1.3,), proc_ids=(-1,))

    def test_stale_command_ignored(self):
        # With retransmits, a delayed duplicate of an *old* decision must
        # not override a newer one.
        cluster = quiet_cluster(nodes=1, procs=1)
        agent = NodeAgent(cluster.nodes[0], seed=1)
        new = FrequencyCommand(node_id=0, time_s=2.0, freqs_hz=(mhz(650),),
                               voltages=(1.0,), proc_ids=(0,))
        old = FrequencyCommand(node_id=0, time_s=1.0, freqs_hz=(ghz(1.0),),
                               voltages=(1.3,), proc_ids=(0,))
        agent.apply_command(new, 2.0)
        agent.apply_command(old, 2.5)   # late retransmit of the old pass
        assert cluster.nodes[0].machine.core(0).frequency_setting_hz == \
            mhz(650)
        # An exact duplicate of the newest command is idempotent.
        agent.apply_command(new, 2.6)
        assert cluster.nodes[0].machine.core(0).frequency_setting_hz == \
            mhz(650)


class TestReportRetention:
    """Regression: windows were destroyed before delivery confirmation."""

    def test_dropped_report_counters_not_lost(self):
        cluster = quiet_cluster(nodes=1)
        agent = NodeAgent(cluster.nodes[0], counter_noise_sigma=0.0, seed=1)
        sim = Simulation(cluster.machines)
        agent.attach(sim)
        sim.run_for(0.1)
        first = agent.make_report(sim.now_s)
        assert first.counters[INSTR, 0] > 0
        # The report was dropped in flight: no confirm_report().  The next
        # report must still carry the first window's events.
        sim.run_for(0.1)
        retry = agent.make_report(sim.now_s)
        assert retry.counters[INSTR, 0] > first.counters[INSTR, 0]
        assert retry.counters[INTERVAL, 0] == \
            pytest.approx(2 * first.counters[INTERVAL, 0])

    def test_confirm_drops_only_reported_samples(self):
        cluster = quiet_cluster(nodes=1)
        agent = NodeAgent(cluster.nodes[0], counter_noise_sigma=0.0, seed=1)
        sim = Simulation(cluster.machines)
        agent.attach(sim)
        sim.run_for(0.1)
        report = agent.make_report(sim.now_s)
        # Samples taken after the report belong to the next window even
        # when the ack arrives late.
        sim.run_for(0.05)
        agent.confirm_report()
        nxt = agent.make_report(sim.now_s)
        assert 0 < nxt.counters[INTERVAL, 0] < report.counters[INTERVAL, 0]

    def test_confirm_without_report_is_noop(self):
        cluster = quiet_cluster(nodes=1)
        agent = NodeAgent(cluster.nodes[0], seed=1)
        agent.confirm_report()   # nothing pending: no-op, no error

    def test_coordinator_confirms_on_fault_free_path(self):
        cluster = quiet_cluster(nodes=1)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.2)   # two passes
        # Windows were confirmed each pass: a fresh report is empty.
        report = coord.agents[0].make_report(sim.now_s)
        assert report.counters[INTERVAL, 0] == pytest.approx(0.0)


class TestZeroIntervalReports:
    """A pass firing before the first sample must degrade, not divide."""

    def test_pass_at_t0_schedules_f_max(self):
        cluster = quiet_cluster(nodes=2)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        schedule = coord.run_global_pass(0.0)   # before any agent sample
        f_max = cluster.nodes[0].machine.table.f_max_hz
        assert all(a.freq_hz == f_max for a in schedule.assignments)
        assert not schedule.infeasible

    def test_t_equals_sample_period_boundary(self):
        # T == t: the tick and the sample land on the same event time.
        cluster = quiet_cluster(nodes=1)
        coord = ClusterCoordinator(
            cluster,
            CoordinatorConfig(sample_period_s=0.01, schedule_period_s=0.01,
                              counter_noise_sigma=0.0),
            seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.05)
        assert coord.last_schedule is not None
        table = cluster.nodes[0].machine.table
        for entry in coord.log.schedule_entries:
            assert entry.freq_hz in table

    def test_zero_interval_views_have_no_signature(self):
        cluster = quiet_cluster(nodes=1)
        coord = ClusterCoordinator(cluster, seed=5)
        counters = np.zeros((len(REPORT_FIELDS), 1))
        counters[INSTR, 0] = 5e6
        counters[REPORT_FIELDS.index("cycles"), 0] = 4e6
        report = NodeReport(node_id=0, time_s=0.0, proc_ids=(0,),
                            counters=counters, idle_signaled=(False,))
        batch = coord._view_batch_from_reports([report])
        assert not batch.has_signature[0]


class TestCoordinatorAgentIndex:
    def test_duplicate_node_ids_rejected(self):
        from repro.sim.machine import SMPMachine
        from repro.sim.node import ClusterNode

        # Cluster itself rejects duplicates, so go through the
        # coordinator's own guard with a hand-built cluster.
        cluster = quiet_cluster(nodes=2)
        cluster.nodes[1] = ClusterNode(0, SMPMachine(
            MachineConfig(num_cores=2), seed=3))
        with pytest.raises(ClusterError):
            ClusterCoordinator(cluster, seed=5)

    def test_unknown_node_lookup_raises(self):
        cluster = quiet_cluster(nodes=1)
        coord = ClusterCoordinator(cluster, seed=5)
        with pytest.raises(ClusterError):
            coord._agent_for(99)

    def test_lookup_is_by_node_id_not_position(self):
        from repro.sim.machine import SMPMachine
        from repro.sim.node import ClusterNode

        nodes = [ClusterNode(i * 10, SMPMachine(MachineConfig(num_cores=1),
                                                seed=i))
                 for i in range(3)]
        coord = ClusterCoordinator(Cluster(nodes), seed=5)
        assert coord._agent_for(20).node.node_id == 20


class TestAgentCrash:
    def test_manual_crash_stops_sampling_and_commands(self):
        cluster = quiet_cluster(nodes=1)
        node = cluster.nodes[0]
        agent = NodeAgent(node, counter_noise_sigma=0.0, seed=1)
        sim = Simulation(cluster.machines)
        agent.attach(sim)
        sim.run_for(0.05)
        node.crash()
        assert agent.crashed(sim.now_s)
        sim.run_for(0.1)
        node.recover()
        sim.run_for(0.03)
        report = agent.make_report(sim.now_s)
        # Pre-crash and in-crash samples are gone; only the post-recovery
        # window (3 x 10 ms samples) remains.
        assert report.counters[INTERVAL, 0] == pytest.approx(0.03, abs=1e-6)

    def test_scheduled_crash_window(self):
        cluster = quiet_cluster(nodes=1)
        plan = FaultSchedule(crashes=(
            CrashWindow(node_id=0, start_s=0.02, end_s=0.04),))
        agent = NodeAgent(cluster.nodes[0], counter_noise_sigma=0.0,
                          faults=plan, seed=1)
        assert not agent.crashed(0.01)
        assert agent.crashed(0.03)
        assert not agent.crashed(0.05)


class TestWithoutFaultPlan:
    """Health tracking and crashed agents need no fault plan."""

    def test_health_gauges_after_one_pass(self):
        telemetry = Telemetry()
        cluster = quiet_cluster(nodes=3)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0),
            telemetry=telemetry, seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        coord.run_global_pass(0.0)
        metrics = telemetry.snapshot()["metrics"]
        gauges = {state: metrics[f"cluster_nodes_{state}"]["series"][0]
                  ["value"] for state in ("healthy", "stale", "lost")}
        assert gauges == {"healthy": 3, "stale": 0, "lost": 0}

    def test_manually_crashed_node_is_neither_collected_nor_commanded(self):
        cluster = quiet_cluster(nodes=2)
        cluster.assign_all(tiered_cluster_assignment(
            2, 2, web_nodes=1, app_nodes=1))
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(power_limit_w=150.0,
                                       counter_noise_sigma=0.0),
            seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.25)
        crashed = cluster.nodes[1]
        crashed.crash()
        frozen = crashed.machine.frequency_vector_hz()
        sim.run_for(0.15)
        assert coord.node_health[1] == "stale"
        sim.run_for(0.35)
        assert coord.node_health[1] == "lost"
        f_min = crashed.machine.table.f_min_hz
        pinned = [a for a in coord.last_schedule.assignments
                  if a.node_id == 1]
        assert pinned and all(a.freq_hz == f_min for a in pinned)
        # Fire-and-forget commands reaching the crashed agent are dropped
        # and counted, never applied, and never acknowledged.
        assert crashed.machine.frequency_vector_hz() == frozen
        assert coord.commands_dropped > 0
        assert coord.reports_dropped > 0
        assert coord.command_retries == 0
        assert coord.max_scheduled_power_w <= 150.0 + 1e-9
        crashed.recover()
        sim.run_for(0.25)
        assert coord.node_health[1] in ("recovered", "healthy")
        assert crashed.machine.frequency_vector_hz() != frozen
