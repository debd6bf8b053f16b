"""Fault injection for the cluster control plane.

The paper's premise is reacting to supply failures and curtailment *before
a cascading failure* (Sections 1, 6) — which means the control plane itself
must keep the safety property when its own messages fail.  This module is
the injection side: a :class:`FaultSchedule` combines a seeded
:class:`~repro.sim.network.NetworkFaults` plan (message loss, latency
jitter, partition windows) with agent crash/recover windows, and the named
scenarios give the CLI and the experiments a shared vocabulary
(``--faults lossy``).

The tolerance side — report timeouts, the last-known-good signature cache,
pessimistic floor scheduling of lost nodes, command acknowledgements with
bounded retransmit — lives in :class:`~repro.cluster.coordinator.ClusterCoordinator`.
See docs/RESILIENCE.md for the full fault model and degraded-mode
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError
from ..sim.network import NetworkFaults, PartitionWindow
from ..sim.rng import spawn_seeds
from ..units import check_non_negative

__all__ = [
    "CrashWindow",
    "FaultSchedule",
    "FAULT_SCENARIOS",
    "FLEET_FAULT_SCENARIOS",
    "fault_scenario",
    "fleet_fault_scenario",
    "scenario_catalog",
]


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """One agent outage: the node's agent is down in ``[start_s, end_s)``.

    While crashed the agent takes no counter samples, serves no reports,
    and applies no commands; its in-memory counter windows are lost (a
    crash wipes process state).  At ``end_s`` it recovers empty-handed.
    """

    node_id: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ClusterError("node_id must be non-negative")
        check_non_negative(self.start_s, "start_s")
        if self.end_s <= self.start_s:
            raise ClusterError(
                f"crash window [{self.start_s}, {self.end_s}) is empty"
            )

    def covers(self, node_id: int, now_s: float) -> bool:
        return self.node_id == node_id and self.start_s <= now_s < self.end_s


class FaultSchedule:
    """A deterministic, seeded plan of everything that goes wrong.

    One object describes the whole run: the network-level fault plan plus
    agent crash windows.  Install it on a cluster (or hand it to a
    :class:`~repro.cluster.coordinator.ClusterCoordinator`, which installs
    it) and the control plane runs in degraded mode.
    """

    def __init__(self, *, network: NetworkFaults | None = None,
                 crashes: tuple[CrashWindow, ...] = (),
                 name: str = "custom") -> None:
        self.network = network
        self.crashes = tuple(crashes)
        self.name = name
        self._crashes_by_node: dict[int, list[CrashWindow]] = {}
        for window in self.crashes:
            self._crashes_by_node.setdefault(window.node_id, []).append(
                window)

    def node_crashed(self, node_id: int, now_s: float) -> bool:
        """Whether the node's agent is down at ``now_s``."""
        return any(w.covers(node_id, now_s)
                   for w in self._crashes_by_node.get(node_id, ()))

    def install(self, cluster) -> None:
        """Attach the network-level plan to the cluster's interconnect."""
        cluster.network.faults = self.network

    def __repr__(self) -> str:
        return (f"FaultSchedule(name={self.name!r}, "
                f"crashes={len(self.crashes)}, "
                f"network={'on' if self.network else 'off'})")


#: Named scenarios: scenario -> one-line description (CLI help and docs).
FAULT_SCENARIOS: dict[str, str] = {
    "none": "no injected faults (identical to the default control plane)",
    "light": "2% message loss, mild latency jitter",
    "lossy": "15% message loss, heavy latency jitter",
    "partition": "node 1 partitioned during [1.0 s, 2.0 s), plus 2% loss",
    "crash": "node 1's agent down during [1.0 s, 2.0 s)",
    "chaos": "10% loss, jitter, a partition window and an agent crash",
}


def scenario_catalog(scenarios: dict[str, str] | None = None) -> str:
    """One line per scenario, ``name — description`` (CLI help, errors)."""
    catalog = FAULT_SCENARIOS if scenarios is None else scenarios
    return "\n".join(f"  {name} — {desc}" for name, desc in catalog.items())


def fault_scenario(name: str, *, seed: int | None = None
                   ) -> FaultSchedule | None:
    """Build a named scenario (``None`` for the fault-free ``"none"``).

    Scenarios are deterministic in ``seed``: loss and jitter streams are
    spawned from it, and partition/crash windows are fixed sim times
    chosen to land inside the short experiment horizons (a few seconds).
    """
    if name not in FAULT_SCENARIOS:
        raise ClusterError(
            f"unknown fault scenario {name!r}; available:\n"
            f"{scenario_catalog()}"
        )
    if name == "none":
        return None
    net_seed = spawn_seeds(seed, 1)[0]
    if name == "light":
        return FaultSchedule(
            network=NetworkFaults(loss_prob=0.02, jitter_sigma=0.1,
                                  seed=net_seed),
            name=name)
    if name == "lossy":
        return FaultSchedule(
            network=NetworkFaults(loss_prob=0.15, jitter_sigma=0.25,
                                  seed=net_seed),
            name=name)
    if name == "partition":
        return FaultSchedule(
            network=NetworkFaults(
                loss_prob=0.02, seed=net_seed,
                partitions=(PartitionWindow(1.0, 2.0,
                                            node_ids=frozenset({1})),)),
            name=name)
    if name == "crash":
        return FaultSchedule(
            network=NetworkFaults(seed=net_seed),
            crashes=(CrashWindow(node_id=1, start_s=1.0, end_s=2.0),),
            name=name)
    # "chaos"
    return FaultSchedule(
        network=NetworkFaults(
            loss_prob=0.10, jitter_sigma=0.3, seed=net_seed,
            partitions=(PartitionWindow(1.0, 1.8,
                                        node_ids=frozenset({1})),)),
        crashes=(CrashWindow(node_id=2, start_s=2.0, end_s=2.6),),
        name=name)


#: Fleet-scale scenarios for the hierarchical control plane (sized to the
#: cluster, unlike the fixed-node-id :data:`FAULT_SCENARIOS`).
FLEET_FAULT_SCENARIOS: dict[str, str] = {
    "partition": "a quarter of the shard uplinks partitioned during "
                 "[0.35 s, 0.85 s), plus 2% loss",
    "crash": "every 64th node's agent down during [0.4 s, 0.9 s)",
    "chaos": "5% loss, jitter, the uplink partition and the agent crashes",
}


def fleet_fault_scenario(name: str, *, num_nodes: int, shard_size: int,
                         seed: int | None = None) -> FaultSchedule:
    """Build a fleet-scale scenario sized to ``num_nodes`` shards.

    A shard's uplink to the fleet tier is its *first* node
    (:attr:`~repro.cluster.hierarchy.ShardCoordinator.uplink_node_id`),
    so partitioning node ids ``k * shard_size`` cuts whole shards off the
    allocator while their intra-rack control plane keeps running.
    Windows land inside the short chaos-run horizons (~1.2 s).
    """
    if name not in FLEET_FAULT_SCENARIOS:
        raise ClusterError(
            f"unknown fleet fault scenario {name!r}; available:\n"
            f"{scenario_catalog(FLEET_FAULT_SCENARIOS)}"
        )
    if num_nodes < 1 or shard_size < 1:
        raise ClusterError("num_nodes and shard_size must be positive")
    net_seed = spawn_seeds(seed, 1)[0]
    num_shards = (num_nodes + shard_size - 1) // shard_size
    # Uplinks of the second quarter of the shards: a contiguous band, as a
    # rack-row switch failure would cut it.
    band = range(num_shards // 4, num_shards // 2)
    uplinks = frozenset(s * shard_size for s in band) or frozenset({0})
    partition = PartitionWindow(0.35, 0.85, node_ids=uplinks)
    crashes = tuple(CrashWindow(node_id=n, start_s=0.4, end_s=0.9)
                    for n in range(0, num_nodes, 64))
    if name == "partition":
        return FaultSchedule(
            network=NetworkFaults(loss_prob=0.02, seed=net_seed,
                                  partitions=(partition,)),
            name=name)
    if name == "crash":
        return FaultSchedule(network=NetworkFaults(seed=net_seed),
                             crashes=crashes, name=name)
    # "chaos"
    return FaultSchedule(
        network=NetworkFaults(loss_prob=0.05, jitter_sigma=0.2,
                              seed=net_seed, partitions=(partition,)),
        crashes=crashes, name=name)
