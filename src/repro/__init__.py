"""repro — reproduction of Kotla, Ghiasi, Keller & Rawson (2005),
"Scheduling Processor Voltage and Frequency in Server and Cluster Systems".

The package implements the paper's fvsst frequency/voltage scheduler, the
counter-driven performance model it relies on, an analytic Power4+ SMP and
cluster simulator that stands in for the authors' pSeries p630 testbed,
workload models for their benchmarks, the baseline policies they argue
against, and one experiment per published table and figure.

Quick start::

    from repro import Scenario, profile_by_name

    result = (Scenario(num_cores=4, seed=1)
              .with_job(3, profile_by_name("mcf").job())
              .with_governor("fvsst", power_limit_w=294.0)
              .run(10.0))
    print([f / 1e6 for f in result.machine.frequency_vector_hz()])

:class:`Scenario` seeds the machine with ``seed`` and the governor with
``seed + 1``; ``run_to_completion()`` runs ONCE jobs to their end.  Wire
``SMPMachine``, a governor and ``Simulation`` by hand when a run needs
more than one machine, a periodic callback or a custom governor.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from . import constants, units
from .errors import (
    ReproError,
    ConfigError,
    ModelError,
    PowerModelError,
    FrequencyError,
    BudgetError,
    InfeasibleBudgetError,
    SimulationError,
    SchedulingError,
    WorkloadError,
    CascadeFailureError,
)
from .model import (
    MemoryLatencyProfile,
    POWER4_LATENCIES,
    MemoryCounts,
    WorkloadSignature,
    perf,
    perf_loss,
    saturation_frequency,
    ideal_frequency,
)
from .power import (
    CmosPowerModel,
    FrequencyPowerTable,
    POWER4_TABLE,
    WORKED_EXAMPLE_TABLE,
    fit_lava_model,
    PowerSupply,
    SupplyBank,
    PowerBudget,
    ComplianceMonitor,
)
from .sim import (
    SMPMachine,
    MachineConfig,
    SimulatedCore,
    CoreConfig,
    Simulation,
    Cluster,
    ClusterNode,
    IdleStyle,
)
from .workloads import (
    Phase,
    Job,
    SyntheticBenchmark,
    two_phase_benchmark,
    profile_by_name,
    ALL_PROFILES,
    WorkloadGenerator,
    tiered_cluster_assignment,
)
from .core import (
    FvsstDaemon,
    DaemonConfig,
    OverheadModel,
    FrequencyVoltageScheduler,
    ProcessorView,
    Schedule,
    CounterPredictor,
    AlphaPredictor,
    NoManagementGovernor,
    UniformScalingGovernor,
    PowerDownGovernor,
    UtilizationGovernor,
)
from .cluster import (
    ClusterCoordinator,
    CoordinatorConfig,
    CrashWindow,
    FaultSchedule,
    fault_scenario,
)
from .core import PER_CORE_OVERHEAD
from .power import ThermalMonitor, ThermalParams
from .workloads import ServerSource, RequestSpec, diurnal_rate
from .scenario import Scenario, ScenarioResult
from . import telemetry
from .telemetry import (
    Telemetry,
    NullTelemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
    telemetry_snapshot,
)

__version__ = "1.0.0"

__all__ = [
    "constants",
    "units",
    # errors
    "ReproError",
    "ConfigError",
    "ModelError",
    "PowerModelError",
    "FrequencyError",
    "BudgetError",
    "InfeasibleBudgetError",
    "SimulationError",
    "SchedulingError",
    "WorkloadError",
    "CascadeFailureError",
    # model
    "MemoryLatencyProfile",
    "POWER4_LATENCIES",
    "MemoryCounts",
    "WorkloadSignature",
    "perf",
    "perf_loss",
    "saturation_frequency",
    "ideal_frequency",
    # power
    "CmosPowerModel",
    "FrequencyPowerTable",
    "POWER4_TABLE",
    "WORKED_EXAMPLE_TABLE",
    "fit_lava_model",
    "PowerSupply",
    "SupplyBank",
    "PowerBudget",
    "ComplianceMonitor",
    # sim
    "SMPMachine",
    "MachineConfig",
    "SimulatedCore",
    "CoreConfig",
    "Simulation",
    "Cluster",
    "ClusterNode",
    "IdleStyle",
    # workloads
    "Phase",
    "Job",
    "SyntheticBenchmark",
    "two_phase_benchmark",
    "profile_by_name",
    "ALL_PROFILES",
    "WorkloadGenerator",
    "tiered_cluster_assignment",
    # fvsst
    "FvsstDaemon",
    "DaemonConfig",
    "OverheadModel",
    "FrequencyVoltageScheduler",
    "ProcessorView",
    "Schedule",
    "CounterPredictor",
    "AlphaPredictor",
    "NoManagementGovernor",
    "UniformScalingGovernor",
    "PowerDownGovernor",
    "UtilizationGovernor",
    # cluster
    "ClusterCoordinator",
    "CrashWindow",
    "FaultSchedule",
    "fault_scenario",
    "CoordinatorConfig",
    # extensions
    "PER_CORE_OVERHEAD",
    "ThermalMonitor",
    "ThermalParams",
    "ServerSource",
    "RequestSpec",
    "diurnal_rate",
    "Scenario",
    "ScenarioResult",
    # telemetry
    "telemetry",
    "Telemetry",
    "NullTelemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "telemetry_snapshot",
]
