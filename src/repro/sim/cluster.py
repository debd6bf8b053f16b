"""A cluster of nodes over a shared network.

The Figure 3 algorithm is written over ``Nodes x Procs``; this class is the
substrate it runs on: homogeneous (or mixed) nodes, a latency network, and
aggregate power views.  The per-node agents and the global coordinator live
in :mod:`repro.cluster`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import ClusterError
from ..workloads.job import Job
from .machine import MachineConfig, SMPMachine
from .network import Network, NetworkConfig
from .node import ClusterNode
from .rng import spawn_seeds

__all__ = ["Cluster"]


class Cluster:
    """Nodes + interconnect."""

    def __init__(self, nodes: Sequence[ClusterNode], *,
                 network: Network | None = None) -> None:
        if not nodes:
            raise ClusterError("a cluster needs at least one node")
        self.nodes: list[ClusterNode] = list(nodes)
        self._nodes_by_id: dict[int, ClusterNode] = {}
        for n in self.nodes:
            if n.node_id in self._nodes_by_id:
                raise ClusterError("duplicate node ids")
            self._nodes_by_id[n.node_id] = n
        self.network = network or Network()
        # One stable list for the simulator: the fleet columns key their
        # resident state on list contents, and rebuilding the list on every
        # property access costs O(N) per event-free span at cluster scale.
        self._machines: list[SMPMachine] = [n.machine for n in self.nodes]

    @classmethod
    def homogeneous(cls, num_nodes: int, *,
                    machine_config: MachineConfig | None = None,
                    network_config: NetworkConfig | None = None,
                    seed: int | None = None) -> "Cluster":
        """Build ``num_nodes`` identical nodes with independent RNG streams."""
        if num_nodes < 1:
            raise ClusterError("need at least one node")
        seeds = spawn_seeds(seed, num_nodes)
        nodes = [
            ClusterNode(i, SMPMachine(machine_config, seed=seeds[i]))
            for i in range(num_nodes)
        ]
        return cls(nodes, network=Network(network_config or NetworkConfig()))

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def machines(self) -> list[SMPMachine]:
        """All member machines (for simulation drivers).  The same list
        object is returned every time; treat it as read-only."""
        return self._machines

    def node(self, node_id: int) -> ClusterNode:
        """Node lookup by id (O(1))."""
        try:
            return self._nodes_by_id[node_id]
        except KeyError:
            raise ClusterError(f"no node with id {node_id}") from None

    @property
    def total_procs(self) -> int:
        return sum(n.num_procs for n in self.nodes)

    def cpu_power_w(self) -> float:
        """True aggregate processor draw across the cluster — the quantity
        the global power limit constrains."""
        return sum(n.cpu_power_w() for n in self.nodes)

    # -- workload placement ---------------------------------------------------------

    def assign_all(self, assignment: Iterable[Iterable[Job]]) -> None:
        """Place jobs from a per-node list-of-lists (one inner list per
        node, one job per processor, as produced by
        :func:`repro.workloads.tiers.tiered_cluster_assignment`)."""
        assignment = [list(jobs) for jobs in assignment]
        if len(assignment) != len(self.nodes):
            raise ClusterError(
                f"assignment covers {len(assignment)} nodes, cluster has "
                f"{len(self.nodes)}"
            )
        for node, jobs in zip(self.nodes, assignment):
            if len(jobs) > node.num_procs:
                raise ClusterError(
                    f"node {node.node_id}: {len(jobs)} jobs exceed "
                    f"{node.num_procs} processors"
                )
            for proc, job in enumerate(jobs):
                node.assign(proc, job)
