"""Open-loop server workloads: request arrivals, queueing, latency.

Section 3.1 contrasts fvsst with Elnozahy et al.'s demand-driven DVS for
web server farms.  To run that comparison, this module generates the
missing workload class: requests arriving over time (Poisson, with a
time-varying rate for diurnal load), each a small ONCE job enqueued on a
processor.  When the queue drains the processor idles — hot, on a Power4+
— so the idle-detection machinery and the utilization governor both get
exercised on their home turf.

Latency is measured per request (completion minus arrival), giving the
metric demand-driven schemes optimise and power-capping schemes risk.
Completed-only percentiles are survivorship-biased during overload — the
queued requests that would dominate the tail are silently missing — so
the source also offers *censored* accounting: an in-flight request has
latency at least ``horizon - arrival``, and the censored percentile
scores those lower bounds alongside the completed latencies (see
docs/SERVING.md for the caveats).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..errors import WorkloadError
from ..units import check_non_negative, check_positive
from .job import Job
from .phase import Phase

if TYPE_CHECKING:  # imported lazily to avoid a workloads <-> sim cycle
    from ..model.ipc import WorkloadSignature
    from ..model.latency import MemoryLatencyProfile
    from ..sim.driver import Simulation
    from ..sim.events import Event
    from ..sim.machine import SMPMachine

__all__ = ["RequestSpec", "RequestRecord", "ServerSource",
           "constant_rate", "diurnal_rate"]


@dataclass(frozen=True, slots=True)
class RequestSpec:
    """Shape of one request's computation.

    Defaults model a dynamic web request: ~2M instructions, moderately
    memory-bound (session/state lookups).
    """

    name: str = "request"
    instructions: float = 2e6
    alpha: float = 2.0
    l1_stall_cycles_per_instr: float = 0.1
    n_l2_per_instr: float = 0.01
    n_l3_per_instr: float = 0.001
    n_mem_per_instr: float = 0.001
    unmodeled_stall_cycles_per_instr: float = 0.05

    def __post_init__(self) -> None:
        check_positive(self.instructions, "instructions")

    def _phase(self) -> Phase:
        return Phase(
            name=self.name,
            instructions=self.instructions,
            alpha=self.alpha,
            l1_stall_cycles_per_instr=self.l1_stall_cycles_per_instr,
            n_l2_per_instr=self.n_l2_per_instr,
            n_l3_per_instr=self.n_l3_per_instr,
            n_mem_per_instr=self.n_mem_per_instr,
            unmodeled_stall_cycles_per_instr=(
                self.unmodeled_stall_cycles_per_instr),
        )

    def job(self, index: int) -> Job:
        return Job(name=f"{self.name}-{index}", phases=(self._phase(),))

    def signature(self, latencies: "MemoryLatencyProfile"
                  ) -> "WorkloadSignature":
        """The request's ground-truth workload signature — what the
        latency predictor needs to map frequency to service time."""
        return self._phase().true_signature(latencies)


@dataclass
class RequestRecord:
    """Book-keeping for one issued request."""

    job: Job
    arrival_s: float
    #: Whether the completion has been harvested into a digest already.
    observed: bool = field(default=False, repr=False)

    @property
    def completed(self) -> bool:
        return self.job.done

    @property
    def latency_s(self) -> float | None:
        if self.job.completed_at_s is None:
            return None
        return self.job.completed_at_s - self.arrival_s


def constant_rate(rate_per_s: float) -> Callable[[float], float]:
    """A constant arrival-rate function."""
    check_non_negative(rate_per_s, "rate_per_s")
    return lambda t: rate_per_s


def diurnal_rate(low_per_s: float, high_per_s: float,
                 period_s: float) -> Callable[[float], float]:
    """Sinusoidal load between ``low`` and ``high`` with the given period —
    a compressed diurnal cycle for simulation."""
    check_non_negative(low_per_s, "low_per_s")
    check_positive(period_s, "period_s")
    if high_per_s < low_per_s:
        raise WorkloadError("high rate below low rate")
    mid = 0.5 * (low_per_s + high_per_s)
    amp = 0.5 * (high_per_s - low_per_s)

    def rate(t: float) -> float:
        return mid - amp * np.cos(2 * np.pi * t / period_s)

    return rate


class ServerSource:
    """Poisson request arrivals onto one processor of a machine.

    Uses thinning against ``max_rate`` so time-varying rates stay exact:
    candidate arrivals are drawn at the peak rate and accepted with
    probability ``rate(t) / max_rate`` — strictly-less-than against the
    ``[0, 1)`` uniform draw, so a zero-rate window (diurnal trough,
    pre-ramp flash crowd) admits exactly nothing.

    ``horizon_s`` ends the arrival chain at a fixed simulation time (no
    dangling post-run event in the queue); :meth:`detach` ends it on
    demand and makes the source re-attachable, so back-to-back experiment
    windows on one :class:`~repro.sim.driver.Simulation` don't accumulate
    live sources.

    ``digest`` (any object with an ``observe(latency_s)`` method, such as
    the telemetry :class:`~repro.telemetry.metrics.Histogram` that each
    :class:`~repro.workloads.serving.FleetTrafficSource` stream holds)
    receives each completed request's latency exactly once at
    :meth:`harvest` time; with ``keep_records=False`` harvested records
    are dropped so memory stays O(in-flight) at fleet scale instead of
    O(issued).
    """

    def __init__(self, machine: "SMPMachine", core_index: int, *,
                 rate_per_s: Callable[[float], float],
                 max_rate_per_s: float,
                 spec: RequestSpec | None = None,
                 horizon_s: float | None = None,
                 digest=None,
                 keep_records: bool = True,
                 rng: np.random.Generator | int | None = None) -> None:
        check_positive(max_rate_per_s, "max_rate_per_s")
        if horizon_s is not None:
            check_positive(horizon_s, "horizon_s")
        self.machine = machine
        self.core_index = core_index
        self.rate = rate_per_s
        self.max_rate = max_rate_per_s
        self.spec = spec or RequestSpec()
        self.horizon_s = horizon_s
        self.digest = digest
        self.keep_records = keep_records
        if rng is None or isinstance(rng, (int, np.integer)):
            self._rng = np.random.default_rng(rng)
        else:
            # A Generator, or anything quacking like one (exponential and
            # uniform) — e.g. the serving layer's blocked-draw buffers.
            self._rng = rng
        self.records: list[RequestRecord] = []
        self._count = 0
        self._harvested_completed = 0
        self._sim: "Simulation | None" = None
        self._pending: "Event | None" = None

    def attach(self, sim: "Simulation") -> None:
        """Start (or, after :meth:`detach`, restart) the arrival process."""
        if self._sim is not None:
            raise WorkloadError("server source already attached")
        self._sim = sim
        self._schedule_next(sim.now_s)

    def detach(self) -> None:
        """Stop the arrival process and release the simulation.

        Cancels the pending candidate event, so nothing of this source
        survives in the event queue; issued requests keep running to
        completion.  The source may be re-attached afterwards.
        """
        if self._sim is None:
            raise WorkloadError("server source is not attached")
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._sim = None

    @property
    def attached(self) -> bool:
        return self._sim is not None

    def _schedule_next(self, now_s: float) -> None:
        gap = float(self._rng.exponential(1.0 / self.max_rate))
        t_next = now_s + gap
        if self.horizon_s is not None and t_next >= self.horizon_s:
            self._pending = None
            return
        self._pending = self._sim.at(t_next, self._on_candidate,
                                     name="request-arrival")

    def _on_candidate(self, t: float) -> None:
        rate_now = self.rate(t)
        if rate_now > self.max_rate * (1 + 1e-9):
            raise WorkloadError(
                f"rate {rate_now}/s exceeds declared max {self.max_rate}/s"
            )
        # Strict inequality: uniform() may return exactly 0.0, which must
        # not admit a candidate when the instantaneous rate is zero.
        if self._rng.uniform() < rate_now / self.max_rate:
            job = self.spec.job(self._count)
            self._count += 1
            self.machine.assign(self.core_index, job)
            self.records.append(RequestRecord(job=job, arrival_s=t))
        self._schedule_next(t)

    # -- harvesting ------------------------------------------------------------------

    def harvest(self) -> int:
        """Fold newly completed requests into the digest; returns how many.

        Completion order is not arrival order (the dispatcher is
        round-robin), so the whole record list is swept.  With
        ``keep_records=False`` harvested records are dropped; in-flight
        records always survive (censored accounting needs them).
        """
        new = 0
        if self.keep_records:
            for record in self.records:
                if record.completed and not record.observed:
                    record.observed = True
                    new += 1
                    if self.digest is not None:
                        self.digest.observe(record.latency_s)
            return new
        kept: list[RequestRecord] = []
        for record in self.records:
            if record.completed:
                new += 1
                self._harvested_completed += 1
                if self.digest is not None:
                    self.digest.observe(record.latency_s)
            else:
                kept.append(record)
        self.records = kept
        return new

    # -- metrics -------------------------------------------------------------------

    @property
    def issued(self) -> int:
        return self._count

    @property
    def completed(self) -> int:
        return self._harvested_completed + sum(
            1 for r in self.records if r.completed)

    @property
    def in_flight(self) -> int:
        return sum(1 for r in self.records if not r.completed)

    def _require_records(self) -> None:
        if not self.keep_records:
            raise WorkloadError(
                "per-request latencies are not retained with "
                "keep_records=False; read the digest instead"
            )

    def latencies_s(self) -> np.ndarray:
        """Latencies of completed requests, in arrival order."""
        self._require_records()
        return np.array([r.latency_s for r in self.records if r.completed])

    def latency_percentile_s(self, pct: float) -> float:
        """Completed-only percentile (raw; survivorship-biased under
        overload — see :meth:`censored_latency_percentile_s`)."""
        lats = self.latencies_s()
        if lats.size == 0:
            raise WorkloadError("no completed requests to score")
        return float(np.percentile(lats, pct))

    def mean_latency_s(self) -> float:
        lats = self.latencies_s()
        if lats.size == 0:
            raise WorkloadError("no completed requests to score")
        return float(lats.mean())

    # -- censored accounting ---------------------------------------------------------

    def _horizon(self, horizon_s: float | None) -> float:
        if horizon_s is not None:
            return horizon_s
        if self._sim is not None:
            return self._sim.now_s
        raise WorkloadError(
            "censored metrics need a horizon: pass horizon_s or keep the "
            "source attached"
        )

    def inflight_lower_bounds_s(self, horizon_s: float | None = None
                                ) -> np.ndarray:
        """Latency lower bounds of in-flight requests at the horizon.

        A request still queued or running at ``horizon`` has latency at
        least ``horizon - arrival``; these are the censored observations
        the raw percentile silently drops.
        """
        horizon = self._horizon(horizon_s)
        return np.array([max(0.0, horizon - r.arrival_s)
                         for r in self.records if not r.completed])

    def censored_latencies_s(self, horizon_s: float | None = None
                             ) -> np.ndarray:
        """Completed latencies plus in-flight lower bounds."""
        self._require_records()
        return np.concatenate([
            self.latencies_s(),
            self.inflight_lower_bounds_s(horizon_s),
        ])

    def censored_latency_percentile_s(self, pct: float,
                                      horizon_s: float | None = None
                                      ) -> float:
        """Percentile over completed latencies *and* in-flight lower
        bounds.

        An underestimate of the true percentile (each censored value is
        a lower bound), but one that keeps the queued tail visible: the
        raw percentile silently drops exactly the requests that would
        dominate it under overload.  Note this is not pointwise above
        the raw value — a recently-arrived in-flight request contributes
        a *small* lower bound that can dilute an upper percentile — but
        as the horizon outruns the queue, the censored tail grows while
        the raw one stands still."""
        lats = self.censored_latencies_s(horizon_s)
        if lats.size == 0:
            raise WorkloadError("no requests to score")
        return float(np.percentile(lats, pct))

    def censored_mean_latency_s(self, horizon_s: float | None = None
                                ) -> float:
        lats = self.censored_latencies_s(horizon_s)
        if lats.size == 0:
            raise WorkloadError("no requests to score")
        return float(lats.mean())
