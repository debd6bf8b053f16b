"""Cluster protocol, agents, and the global coordinator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.agent import NodeAgent
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.protocol import (
    REPORT_FIELDS,
    FrequencyCommand,
    Liveness,
    NodeReport,
    message_size_bytes,
)
from repro.errors import ClusterError, ReproError
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.telemetry import (
    EVENT_NODE_LOST,
    EVENT_NODE_RECOVERED,
    EVENT_SHARD_LOST,
    EVENT_SHARD_RECOVERED,
    Telemetry,
)
from repro.units import ghz, mhz
from repro.workloads.tiers import tiered_cluster_assignment


INSTR = REPORT_FIELDS.index("instructions")


def node_report(proc_ids=(0,), instr=1e6) -> NodeReport:
    counters = np.zeros((len(REPORT_FIELDS), len(proc_ids)))
    counters[INSTR] = instr
    counters[REPORT_FIELDS.index("cycles")] = 1e6
    counters[REPORT_FIELDS.index("interval_s")] = 0.1
    return NodeReport(node_id=0, time_s=0.0, proc_ids=tuple(proc_ids),
                      counters=counters,
                      idle_signaled=(False,) * len(proc_ids))


def quiet_cluster(nodes=2, procs=2, seed=0) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ),
        seed=seed,
    )


class TestProtocol:
    def test_report_size_scales_with_procs(self):
        one = node_report((0,))
        two = node_report((0, 1))
        assert message_size_bytes(two) > message_size_bytes(one)

    def test_duplicate_procs_rejected(self):
        with pytest.raises(ClusterError):
            node_report((0, 0))

    def test_command_vector_lengths_checked(self):
        with pytest.raises(ClusterError):
            FrequencyCommand(node_id=0, time_s=0.0,
                             freqs_hz=(ghz(1.0),), voltages=(1.3, 1.2),
                             proc_ids=(0,))

    def test_unknown_message_type(self):
        with pytest.raises(ClusterError):
            message_size_bytes("junk")  # type: ignore[arg-type]


class TestLiveness:
    """The one health rule the coordinator (nodes) and the fleet
    allocator (shards) age their members by."""

    @pytest.mark.parametrize("member, gauges, lost, recovered", [
        ("node", "cluster_nodes_", EVENT_NODE_LOST, EVENT_NODE_RECOVERED),
        ("shard", "shard_health_", EVENT_SHARD_LOST, EVENT_SHARD_RECOVERED),
    ])
    def test_members_walk_the_health_states(self, member, gauges, lost,
                                            recovered):
        telemetry = Telemetry()
        health = Liveness((0, 1), telemetry, member=member, gauges=gauges)

        def sweep(now_s, fresh):
            payloads = health.sweep(now_s, fresh, bound_s=1.0)
            counts = tuple(telemetry.metrics.get(gauges + state).value
                           for state in ("healthy", "stale", "lost"))
            return payloads, dict(health.states), counts

        # Member 1 misses its first round: nothing cached, so lost.
        assert sweep(0.0, {0: "a"}) == (
            ["a", None], {0: "healthy", 1: "lost"}, (1, 0, 1))
        # Member 0 misses a round: its 0.5 s-old payload serves (stale).
        assert sweep(0.5, {}) == (
            ["a", None], {0: "stale", 1: "lost"}, (0, 1, 1))
        # ... until the cache is older than the bound: lost.
        assert sweep(1.5, {}) == (
            [None, None], {0: "lost", 1: "lost"}, (0, 0, 2))
        # Back from lost: recovered, which counts as healthy.
        assert sweep(2.0, {0: "b", 1: "c"}) == (
            ["b", "c"], {0: "recovered", 1: "recovered"}, (2, 0, 0))
        assert sweep(2.5, {0: "d"}) == (
            ["d", "c"], {0: "healthy", 1: "stale"}, (1, 1, 0))
        events = telemetry.events
        assert [(e.sim_time_s, dict(e.attrs)) for e in events.events_of(lost)] \
            == [(0.0, {member: 1, "previous": "healthy"}),
                (1.5, {member: 0, "previous": "stale"})]
        assert [(e.sim_time_s, dict(e.attrs))
                for e in events.events_of(recovered)] \
            == [(2.0, {member: 0}), (2.0, {member: 1})]


class TestNodeAgent:
    def test_report_aggregates_window_and_clears_on_confirm(self):
        cluster = quiet_cluster(nodes=1)
        node = cluster.nodes[0]
        agent = NodeAgent(node, counter_noise_sigma=0.0, seed=1)
        sim = Simulation(cluster.machines)
        agent.attach(sim)
        sim.run_for(0.1)
        report = agent.make_report(sim.now_s)
        assert report.proc_ids == (0, 1)
        assert report.counters[INSTR, 0] > 0
        # Windows survive until delivery is confirmed: an unconfirmed
        # report is superseded, not destroyed.
        resend = agent.make_report(sim.now_s)
        assert resend.counters[INSTR, 0] == report.counters[INSTR, 0]
        agent.confirm_report()
        empty = agent.make_report(sim.now_s)
        assert empty.counters[INSTR, 0] == 0.0

    def test_apply_command_sets_frequencies(self):
        cluster = quiet_cluster(nodes=1)
        agent = NodeAgent(cluster.nodes[0], seed=1)
        command = FrequencyCommand(node_id=0, time_s=0.0,
                                   freqs_hz=(mhz(650), mhz(500)),
                                   voltages=(1.0, 0.9), proc_ids=(0, 1))
        agent.apply_command(command, 0.0)
        assert cluster.nodes[0].machine.frequency_vector_hz() == [
            mhz(650), mhz(500)
        ]

    def test_misrouted_command_rejected(self):
        cluster = quiet_cluster(nodes=1)
        agent = NodeAgent(cluster.nodes[0], seed=1)
        command = FrequencyCommand(node_id=7, time_s=0.0,
                                   freqs_hz=(ghz(1.0), ghz(1.0)),
                                   voltages=(1.3, 1.3), proc_ids=(0, 1))
        with pytest.raises(ClusterError):
            agent.apply_command(command, 0.0)

    def test_double_attach_rejected(self):
        cluster = quiet_cluster(nodes=1)
        agent = NodeAgent(cluster.nodes[0], seed=1)
        sim = Simulation(cluster.machines)
        agent.attach(sim)
        with pytest.raises(ClusterError):
            agent.attach(sim)


class TestCoordinator:
    def _run(self, budget, *, seconds=1.0, nodes=2, procs=2):
        cluster = quiet_cluster(nodes=nodes, procs=procs)
        cluster.assign_all(tiered_cluster_assignment(
            nodes, procs, web_nodes=0, app_nodes=1))
        coord = ClusterCoordinator(
            cluster,
            CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0),
            seed=5,
        )
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(seconds)
        return cluster, coord, sim

    def test_diversity_visible_in_schedule(self):
        cluster, coord, _sim = self._run(None)
        # app node stays fast, db node saturates low.
        app = cluster.nodes[0].machine.frequency_vector_hz()
        db = cluster.nodes[1].machine.frequency_vector_hz()
        assert min(app) >= mhz(900)
        assert max(db) <= mhz(750)

    def test_global_budget_respected(self):
        budget = 300.0
        cluster, coord, _sim = self._run(budget, seconds=2.0)
        assert coord.last_schedule.total_power_w <= budget
        assert cluster.cpu_power_w() <= budget + 1e-9

    def test_commands_arrive_with_network_delay(self):
        cluster = quiet_cluster(nodes=1)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.1)   # global pass fires at t = 0.1
        schedule = coord.last_schedule
        assert schedule is not None
        # The command applies strictly after the pass time.
        base = cluster.network.config.base_latency_s
        assert cluster.network.messages_sent >= 3
        assert base > 0

    def test_limit_trigger_runs_immediate_pass(self):
        cluster, coord, sim = self._run(None, seconds=0.5)
        before = cluster.cpu_power_w()
        coord.set_power_limit(300.0, sim.now_s)
        sim.run_for(0.01)  # let delayed commands land
        assert cluster.cpu_power_w() <= 300.0 < before

    def test_log_covers_every_processor(self):
        cluster, coord, _sim = self._run(None)
        procs = {(e.node_id, e.proc_id) for e in coord.log.schedule_entries}
        assert procs == {(n, p) for n in range(2) for p in range(2)}

    def test_double_attach_rejected(self):
        cluster = quiet_cluster(nodes=1)
        coord = ClusterCoordinator(cluster, seed=5)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        with pytest.raises(ClusterError):
            coord.attach(sim)

    def test_t_less_than_sample_rejected(self):
        with pytest.raises(ClusterError):
            CoordinatorConfig(sample_period_s=0.1, schedule_period_s=0.05)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestCoordinatorConfigBoundary:
    """Everything ``CoordinatorConfig`` accepts must build a coordinator:
    no field may be checked only later, by the agents or the scheduler."""

    @pytest.mark.parametrize("retries", [1.5, True, -1, "2", None])
    def test_command_retries_must_be_a_non_negative_int(self, retries):
        with pytest.raises(ClusterError):
            CoordinatorConfig(command_retries=retries)

    @pytest.mark.parametrize("sigma", [float("nan"), -0.01, float("inf")])
    def test_noise_sigma_checked(self, sigma):
        with pytest.raises(ReproError):
            CoordinatorConfig(counter_noise_sigma=sigma)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, float("nan")])
    def test_epsilon_checked(self, epsilon):
        with pytest.raises(ReproError):
            CoordinatorConfig(epsilon=epsilon)

    @given(epsilon=st.one_of(_ANY_FLOAT, st.floats(0.0, 1.0)),
           sample_period_s=st.one_of(_ANY_FLOAT, st.floats(1e-4, 0.1)),
           counter_noise_sigma=st.one_of(_ANY_FLOAT, st.floats(0.0, 0.1)),
           command_retries=st.one_of(st.integers(-2, 5), st.booleans(),
                                     _ANY_FLOAT),
           power_limit_w=st.one_of(st.none(), _ANY_FLOAT),
           retry_timeout_s=st.one_of(_ANY_FLOAT, st.floats(1e-4, 0.1)))
    @settings(max_examples=80, deadline=None)
    def test_every_accepted_config_builds_a_coordinator(self, **fields):
        try:
            config = CoordinatorConfig(schedule_period_s=0.1, **fields)
        except ReproError:
            return
        ClusterCoordinator(quiet_cluster(nodes=2, procs=2), config, seed=1)
