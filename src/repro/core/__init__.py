"""fvsst — the frequency and voltage scheduler (the paper's contribution).

* :mod:`~repro.core.predictor` — counter-driven IPC prediction.
* :mod:`~repro.core.scheduler` — the Figure 3 three-step algorithm.
* :mod:`~repro.core.continuous` — the ``f_ideal`` continuous variant.
* :mod:`~repro.core.voltage` — minimum-voltage assignment (step 3).
* :mod:`~repro.core.triggers` — the three scheduling triggers of Section 5.
* :mod:`~repro.core.logs` — scheduling and counter logs (Section 6).
* :mod:`~repro.core.daemon` — the fvsst daemon tying it all together.
* :mod:`~repro.core.governor` — common governor interface.
* :mod:`~repro.core.baselines` — comparison policies (no management,
  uniform scaling, node power-down, utilization-driven, static oracle).
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
from .continuous import ContinuousFrequencyScheduler
from .hetero import HeterogeneousScheduler
from .consolidation import ConsolidationGovernor
from .voltage import VoltageSelector, default_vf_curve
from .triggers import TriggerBus, PowerLimitChange, IdleTransition
from .logs import ScheduleLogEntry, CounterLogEntry, FvsstLog
from .daemon import FvsstDaemon, DaemonConfig, OverheadModel
from .daemon_mt import MultithreadedFvsstDaemon, MultithreadOverheadModel
from .governor import Governor
from .baselines import (
    NoManagementGovernor,
    UniformScalingGovernor,
    PowerDownGovernor,
    UtilizationGovernor,
    StaticOracleGovernor,
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
    "ContinuousFrequencyScheduler",
    "HeterogeneousScheduler",
    "ConsolidationGovernor",
    "VoltageSelector",
    "default_vf_curve",
    "TriggerBus",
    "PowerLimitChange",
    "IdleTransition",
    "ScheduleLogEntry",
    "CounterLogEntry",
    "FvsstLog",
    "FvsstDaemon",
    "DaemonConfig",
    "OverheadModel",
    "MultithreadedFvsstDaemon",
    "MultithreadOverheadModel",
    "Governor",
    "NoManagementGovernor",
    "UniformScalingGovernor",
    "PowerDownGovernor",
    "UtilizationGovernor",
    "StaticOracleGovernor",
    "uniform_cap_frequency",
]
