"""Cluster-level frequency/voltage scheduling.

The paper's algorithm (Figure 3) is written over ``Nodes x Procs`` with a
single global power limit, but its prototype ran on one SMP; "the
development of a prototype for the cluster environment remains as future
work" (Section 6).  This package completes that step over the simulated
substrate:

* :mod:`~repro.cluster.protocol` — the messages agents and coordinator
  exchange (sized, so the network model can charge for them).
* :mod:`~repro.cluster.agent` — the per-node agent: samples local counters,
  reports summaries, applies frequency commands.
* :mod:`~repro.cluster.coordinator` — the global scheduler: collects all
  node reports every ``T``, runs Figure 3 across every processor of every
  node, and pushes per-node frequency vectors back through the network.
* :mod:`~repro.cluster.faults` — fault injection (message loss, latency
  jitter, partitions, agent crashes) and the named ``--faults`` scenarios;
  the coordinator's degraded mode tolerates them (docs/RESILIENCE.md).
* :mod:`~repro.cluster.hierarchy` — the two-tier control plane: per-rack
  :class:`ShardCoordinator` instances under a :class:`FleetAllocator`
  that water-fills the fleet power budget across shards from compact
  demand summaries (``fvsst run --shards``).
"""

from .protocol import (
    REPORT_FIELDS,
    NodeReport,
    FrequencyCommand,
    ShardSummary,
    BudgetLease,
    message_size_bytes,
)
from .agent import NodeAgent
from .coordinator import ClusterCoordinator, CoordinatorConfig
from .faults import (
    FAULT_SCENARIOS,
    CrashWindow,
    FaultSchedule,
    fault_scenario,
    fleet_fault_scenario,
    scenario_catalog,
)
from .hierarchy import (
    FleetAllocator,
    FleetConfig,
    ShardCoordinator,
    water_fill_budgets,
)

__all__ = [
    "REPORT_FIELDS",
    "NodeReport",
    "FrequencyCommand",
    "ShardSummary",
    "BudgetLease",
    "message_size_bytes",
    "NodeAgent",
    "ClusterCoordinator",
    "CoordinatorConfig",
    "FaultSchedule",
    "CrashWindow",
    "FAULT_SCENARIOS",
    "fault_scenario",
    "fleet_fault_scenario",
    "scenario_catalog",
    "FleetAllocator",
    "FleetConfig",
    "ShardCoordinator",
    "water_fill_budgets",
]
