"""Workload descriptions: phases, jobs, and the paper's benchmarks.

* :mod:`~repro.workloads.phase` — the phase abstraction: a stretch of
  execution with stationary per-instruction characteristics.
* :mod:`~repro.workloads.job` — jobs as phase sequences with progress.
* :mod:`~repro.workloads.synthetic` — the adjustable CPU/memory-intensity
  synthetic benchmark of [2] used throughout the paper's evaluation.
* :mod:`~repro.workloads.profiles` — models of gzip, gap, mcf (SPEC
  CPU2000) and health (Olden), calibrated to the published behaviour.
* :mod:`~repro.workloads.generator` — seeded random workload generator.
* :mod:`~repro.workloads.traces` — phase-trace record/replay.
* :mod:`~repro.workloads.tiers` — tiered cluster workloads (web/app/db).
"""

from .phase import Phase, IDLE_PHASE_NAME, idle_phase
from .job import Job, JobState, LoopMode
from .synthetic import SyntheticBenchmark, synthetic_phase, two_phase_benchmark
from .profiles import (
    BenchmarkProfile,
    gzip_profile,
    gap_profile,
    mcf_profile,
    health_profile,
    profile_by_name,
    ALL_PROFILES,
)
from .generator import WorkloadGenerator, GeneratorSpec
from .traces import PhaseTrace, RateTrace, TraceRecord, record_trace, replay_trace
from .tiers import Tier, TIER_WEB, TIER_APP, TIER_DB, tier_job, tiered_cluster_assignment
from .server import RequestSpec, ServerSource, constant_rate, diurnal_rate
from .serving import (
    REQUEST_LATENCY_BUCKETS_S,
    FleetTrafficSource,
    NodeDemand,
    flash_crowd_rate,
)
from .calibrate import (admissibility_threshold, ratio_band_for_rung,
                        ratio_for_rung, signature_for_rung)

__all__ = [
    "Phase",
    "IDLE_PHASE_NAME",
    "idle_phase",
    "Job",
    "JobState",
    "LoopMode",
    "SyntheticBenchmark",
    "synthetic_phase",
    "two_phase_benchmark",
    "BenchmarkProfile",
    "gzip_profile",
    "gap_profile",
    "mcf_profile",
    "health_profile",
    "profile_by_name",
    "ALL_PROFILES",
    "WorkloadGenerator",
    "GeneratorSpec",
    "PhaseTrace",
    "TraceRecord",
    "record_trace",
    "replay_trace",
    "Tier",
    "TIER_WEB",
    "TIER_APP",
    "TIER_DB",
    "tier_job",
    "tiered_cluster_assignment",
    "RateTrace",
    "RequestSpec",
    "ServerSource",
    "constant_rate",
    "diurnal_rate",
    "REQUEST_LATENCY_BUCKETS_S",
    "FleetTrafficSource",
    "NodeDemand",
    "flash_crowd_rate",
    "admissibility_threshold",
    "ratio_band_for_rung",
    "ratio_for_rung",
    "signature_for_rung",
]
