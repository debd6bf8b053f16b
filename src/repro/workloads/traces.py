"""Phase-trace and arrival-trace record/replay.

The fvsst prototype "generates both scheduling and performance counter data
logs ... for monitoring and data analysis" (Section 6).  This module is the
workload-side counterpart: a :class:`PhaseTrace` serialises the phase
structure a job executed so a run can be replayed exactly (e.g. to compare
governors on identical work) or archived alongside experiment results, and
a :class:`RateTrace` serialises a measured arrival-rate curve (JSON Lines,
one ``{"t": ..., "rate_per_s": ...}`` step per line) so real traffic can
drive the open-loop serving layer.

Traces serialise to plain JSON — no pickle, so they are safe to exchange
and diff.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..errors import WorkloadError
from .job import Job, LoopMode
from .phase import Phase

__all__ = ["TraceRecord", "PhaseTrace", "RateTrace", "record_trace",
           "replay_trace"]

_FORMAT_VERSION = 1
_RATE_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One phase occurrence in a trace."""

    name: str
    instructions: float
    alpha: float
    l1_stall_cycles_per_instr: float
    n_l2_per_instr: float
    n_l3_per_instr: float
    n_mem_per_instr: float
    unmodeled_stall_cycles_per_instr: float

    @classmethod
    def from_phase(cls, phase: Phase) -> "TraceRecord":
        return cls(
            name=phase.name,
            instructions=phase.instructions,
            alpha=phase.alpha,
            l1_stall_cycles_per_instr=phase.l1_stall_cycles_per_instr,
            n_l2_per_instr=phase.n_l2_per_instr,
            n_l3_per_instr=phase.n_l3_per_instr,
            n_mem_per_instr=phase.n_mem_per_instr,
            unmodeled_stall_cycles_per_instr=phase.unmodeled_stall_cycles_per_instr,
        )

    def to_phase(self) -> Phase:
        return Phase(
            name=self.name,
            instructions=self.instructions,
            alpha=self.alpha,
            l1_stall_cycles_per_instr=self.l1_stall_cycles_per_instr,
            n_l2_per_instr=self.n_l2_per_instr,
            n_l3_per_instr=self.n_l3_per_instr,
            n_mem_per_instr=self.n_mem_per_instr,
            unmodeled_stall_cycles_per_instr=self.unmodeled_stall_cycles_per_instr,
        )


@dataclass(frozen=True)
class PhaseTrace:
    """A serialisable job description."""

    job_name: str
    loop: bool
    records: tuple[TraceRecord, ...]

    def to_dict(self) -> dict:
        return {
            "version": _FORMAT_VERSION,
            "job_name": self.job_name,
            "loop": self.loop,
            "records": [asdict(r) for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseTrace":
        version = data.get("version")
        if version != _FORMAT_VERSION:
            raise WorkloadError(f"unsupported trace version {version!r}")
        try:
            records = tuple(TraceRecord(**r) for r in data["records"])
            return cls(job_name=data["job_name"], loop=bool(data["loop"]),
                       records=records)
        except (KeyError, TypeError) as exc:
            raise WorkloadError(f"malformed trace: {exc}") from exc

    def dump(self, path: str | Path) -> None:
        """Write the trace as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "PhaseTrace":
        """Read a JSON trace."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise WorkloadError(f"cannot load trace from {path}: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class RateTrace:
    """A stepwise arrival-rate curve for trace-driven serving traffic.

    ``rates_per_s[i]`` holds from ``times_s[i]`` until the next point (the
    last rate holds forever); ``times_s[0]`` must be 0 so the curve is
    total.  :meth:`rate_fn` adapts the trace to the rate-function protocol
    of :class:`~repro.workloads.server.ServerSource` and
    :class:`~repro.workloads.serving.FleetTrafficSource`, whose
    ``max_rate_per_s`` is simply :attr:`max_rate_per_s`.
    """

    times_s: tuple[float, ...]
    rates_per_s: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times_s:
            raise WorkloadError("rate trace has no points")
        if len(self.times_s) != len(self.rates_per_s):
            raise WorkloadError("rate trace times/rates length mismatch")
        # NaN passes every ordering check below: a NaN time would make its
        # step unreachable, and a NaN rate would thin to no arrivals.
        if not all(math.isfinite(t) for t in self.times_s):
            raise WorkloadError("rate trace times must be finite")
        if not all(math.isfinite(r) for r in self.rates_per_s):
            raise WorkloadError("rate trace rates must be finite")
        if self.times_s[0] != 0.0:
            raise WorkloadError("rate trace must start at t = 0")
        if any(t2 <= t1 for t1, t2 in zip(self.times_s, self.times_s[1:])):
            raise WorkloadError("rate trace times must strictly increase")
        if any(r < 0.0 for r in self.rates_per_s):
            raise WorkloadError("rate trace rates must be non-negative")

    @classmethod
    def from_points(cls, points: Sequence[tuple[float, float]]
                    ) -> "RateTrace":
        return cls(times_s=tuple(float(t) for t, _ in points),
                   rates_per_s=tuple(float(r) for _, r in points))

    @property
    def max_rate_per_s(self) -> float:
        return max(self.rates_per_s)

    def rate_fn(self) -> Callable[[float], float]:
        """The step function ``t -> rate``; ``t < 0`` reads the first step."""
        times = np.array(self.times_s)
        rates = self.rates_per_s

        def rate(t: float) -> float:
            i = int(np.searchsorted(times, t, side="right")) - 1
            return rates[max(i, 0)]

        return rate

    # -- JSONL serialisation ---------------------------------------------------

    def dump_jsonl(self, path: str | Path) -> None:
        """Write the trace as JSON Lines: a header line, then one
        ``{"t": ..., "rate_per_s": ...}`` per step."""
        lines = [json.dumps({"version": _RATE_FORMAT_VERSION,
                             "kind": "rate-trace"})]
        lines.extend(
            json.dumps({"t": t, "rate_per_s": r})
            for t, r in zip(self.times_s, self.rates_per_s)
        )
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "RateTrace":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise WorkloadError(
                f"cannot load rate trace from {path}: {exc}") from exc
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise WorkloadError(f"rate trace {path} is empty")
        try:
            header = json.loads(lines[0])
            records = [json.loads(line) for line in lines[1:]]
        except json.JSONDecodeError as exc:
            raise WorkloadError(
                f"cannot load rate trace from {path}: {exc}") from exc
        if (not isinstance(header, dict)
                or header.get("kind") != "rate-trace"):
            raise WorkloadError(f"{path} is not a rate trace")
        if header.get("version") != _RATE_FORMAT_VERSION:
            raise WorkloadError(
                f"unsupported rate-trace version {header.get('version')!r}")
        try:
            return cls(
                times_s=tuple(float(r["t"]) for r in records),
                rates_per_s=tuple(float(r["rate_per_s"]) for r in records),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WorkloadError(f"malformed rate trace: {exc}") from exc


def record_trace(job: Job) -> PhaseTrace:
    """Capture a job's phase structure as a trace."""
    return PhaseTrace(
        job_name=job.name,
        loop=job.loop is LoopMode.LOOP,
        records=tuple(TraceRecord.from_phase(p) for p in job.phases),
    )


def replay_trace(trace: PhaseTrace, *, name: str | None = None) -> Job:
    """Rebuild a fresh (unstarted) job from a trace."""
    if not trace.records:
        raise WorkloadError("trace has no phase records")
    return Job(
        name=name or trace.job_name,
        phases=tuple(r.to_phase() for r in trace.records),
        loop=LoopMode.LOOP if trace.loop else LoopMode.ONCE,
    )
