"""Network model, cluster nodes and cluster container."""

import pytest

from repro.errors import ClusterError
from repro.sim.cluster import Cluster
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import ClusterNode
from repro.units import ghz
from repro.workloads.tiers import tiered_cluster_assignment


class TestNetwork:
    def test_delay_components(self):
        net = Network(NetworkConfig(base_latency_s=1e-4, per_byte_s=1e-8))
        assert net.delay_for(0) == pytest.approx(1e-4)
        assert net.delay_for(1000) == pytest.approx(1e-4 + 1e-5)

    def test_accounting(self):
        net = Network()
        net.send(100)
        net.send(200)
        assert net.messages_sent == 2
        assert net.bytes_sent == 300

    def test_round_trip_counts_two_messages(self):
        net = Network()
        delay = (net.try_send(100, now_s=0.0, node_id=0)
                 + net.try_send(50, now_s=0.0, node_id=0))
        assert net.messages_sent == 2
        assert delay > net.config.base_latency_s

    def test_negative_payload_rejected(self):
        with pytest.raises(ClusterError):
            Network().delay_for(-1)


class TestClusterNode:
    def test_build_and_power(self):
        node = ClusterNode.build(3, config=MachineConfig(num_cores=2),
                                 seed=1)
        assert node.node_id == 3
        assert node.num_procs == 2
        assert node.cpu_power_w() == pytest.approx(280.0)

    def test_negative_id_rejected(self):
        with pytest.raises(ClusterError):
            ClusterNode.build(-1)


class TestCluster:
    def test_homogeneous_construction(self):
        cl = Cluster.homogeneous(3, machine_config=MachineConfig(num_cores=2),
                                 seed=0)
        assert len(cl) == 3
        assert cl.total_procs == 6
        assert cl.cpu_power_w() == pytest.approx(6 * 140.0)

    def test_node_lookup(self):
        cl = Cluster.homogeneous(2, seed=0)
        assert cl.node(1).node_id == 1
        with pytest.raises(ClusterError):
            cl.node(9)

    def test_duplicate_node_ids_rejected(self):
        a = ClusterNode.build(0, config=MachineConfig(num_cores=1))
        b = ClusterNode.build(0, config=MachineConfig(num_cores=1))
        with pytest.raises(ClusterError):
            Cluster([a, b])

    def test_assign_all_shape_checked(self):
        cl = Cluster.homogeneous(2, machine_config=MachineConfig(num_cores=1),
                                 seed=0)
        with pytest.raises(ClusterError):
            cl.assign_all([[]])  # wrong node count

    def test_assign_all_capacity_checked(self):
        cl = Cluster.homogeneous(1, machine_config=MachineConfig(num_cores=1),
                                 seed=0)
        jobs = tiered_cluster_assignment(1, 2)
        with pytest.raises(ClusterError):
            cl.assign_all(jobs)

    def test_tiered_assignment_runs(self):
        cl = Cluster.homogeneous(3, machine_config=MachineConfig(num_cores=2),
                                 seed=0)
        cl.assign_all(tiered_cluster_assignment(3, 2, web_nodes=1,
                                                app_nodes=1))
        sim = Simulation(cl.machines)
        sim.run_for(0.5)
        for node in cl.nodes:
            for core in node.machine.cores:
                assert core.counters.instructions > 0

    def test_seeded_reproducibility(self):
        def run(seed):
            cl = Cluster.homogeneous(
                2, machine_config=MachineConfig(num_cores=1), seed=seed
            )
            cl.assign_all(tiered_cluster_assignment(2, 1, web_nodes=1,
                                                    app_nodes=0))
            sim = Simulation(cl.machines)
            sim.run_for(0.5)
            return [n.machine.core(0).counters.instructions
                    for n in cl.nodes]

        assert run(7) == run(7)

    def test_machines_accessor(self):
        cl = Cluster.homogeneous(2, seed=0)
        assert len(cl.machines) == 2
        assert cl.machines[0].table.f_max_hz == ghz(1.0)
