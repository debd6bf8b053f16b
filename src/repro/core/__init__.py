"""fvsst — the frequency and voltage scheduler (the paper's contribution).

* :mod:`~repro.core.predictor` — counter-driven IPC prediction.
* :mod:`~repro.core.scheduler` — the Figure 3 three-step algorithm, with
  per-node limits, SLO floors, a frequency ceiling and per-part power
  scales as inputs to the one pass.
* :mod:`~repro.core.voltage` — minimum-voltage assignment (step 3).
* :mod:`~repro.core.logs` — scheduling and counter logs (Section 6).
* :mod:`~repro.core.daemon` — the fvsst daemon tying it all together
  (single-threaded or, with ``OverheadModel.per_core``, Section 9's
  per-processor threads).
* :mod:`~repro.core.governor` — common governor interface.
* :mod:`~repro.core.baselines` — comparison policies (no management,
  uniform scaling, node power-down, utilization-driven).
* :mod:`~repro.core.consolidation` — workload consolidation onto fewer
  processors (the ``migration`` experiment).
"""

from .predictor import (
    CounterPredictor,
    AlphaPredictor,
    PredictorProtocol,
    SignatureArrays,
)
from .scheduler import (
    ProcessorView,
    ViewBatch,
    ProcessorAssignment,
    Schedule,
    FrequencyVoltageScheduler,
)
from .consolidation import ConsolidationGovernor
from .voltage import VoltageSelector, default_vf_curve
from .logs import ScheduleLogEntry, CounterLogEntry, FvsstLog
from .daemon import FvsstDaemon, DaemonConfig, OverheadModel, PER_CORE_OVERHEAD
from .governor import Governor
from .baselines import (
    NoManagementGovernor,
    UniformScalingGovernor,
    PowerDownGovernor,
    UtilizationGovernor,
    uniform_cap_frequency,
)

__all__ = [
    "CounterPredictor",
    "AlphaPredictor",
    "PredictorProtocol",
    "SignatureArrays",
    "ProcessorView",
    "ViewBatch",
    "ProcessorAssignment",
    "Schedule",
    "FrequencyVoltageScheduler",
    "ConsolidationGovernor",
    "VoltageSelector",
    "default_vf_curve",
    "ScheduleLogEntry",
    "CounterLogEntry",
    "FvsstLog",
    "FvsstDaemon",
    "DaemonConfig",
    "OverheadModel",
    "PER_CORE_OVERHEAD",
    "Governor",
    "NoManagementGovernor",
    "UniformScalingGovernor",
    "PowerDownGovernor",
    "UtilizationGovernor",
    "uniform_cap_frequency",
]
