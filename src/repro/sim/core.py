"""A simulated Power4+ core.

The core executes the jobs in its dispatcher queue analytically: over a
wall-clock slice at effective frequency ``f`` the current phase retires
``f / CPI_true(f)`` instructions per second, where the ground-truth CPI uses
the same frequency-separable decomposition as the Section 4.3 model plus the
unmodeled-stall component and a per-slice latency-jitter factor.  Counters
accumulate expected-value event counts for every slice.

Slices are cut at every boundary that changes execution characteristics —
phase transitions, dispatcher quantum expiry, frequency settling — so each
slice is stationary and the analytic throughput expression is exact within
the model family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..model.latency import MemoryLatencyProfile, POWER4_LATENCIES
from ..units import check_non_negative, check_positive
from ..workloads.job import Job
from ..workloads.phase import Phase
from .counters import CounterBank
from .idle import HOT_IDLE_PHASE, IdleDetector, IdleStyle
from .os_sched import DEFAULT_QUANTUM_S, Dispatcher
from .rng import make_rng
from .throttle import ThrottleActuator

__all__ = ["CoreConfig", "SimulatedCore", "DAEMON_OVERHEAD_PHASE"]

#: Smallest slice the core will cut (guards against float-degenerate loops).
_MIN_SLICE_S = 1e-12

#: Characteristics of the fvsst daemon's own code when it steals core time:
#: short, CPU-bound bursts touching its log buffers.
DAEMON_OVERHEAD_PHASE = Phase(
    name="__fvsst_overhead__",
    instructions=1e18,
    alpha=1.4,
    l1_stall_cycles_per_instr=0.1,
    n_l2_per_instr=0.001,
)


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Tunables of a simulated core."""

    #: Log-std-dev of the per-slice memory-latency jitter (0 disables).
    latency_jitter_sigma: float = 0.02
    #: How the core behaves with an empty run queue.
    idle_style: IdleStyle = IdleStyle.HOT_LOOP
    #: Dispatcher time quantum.
    quantum_s: float = DEFAULT_QUANTUM_S
    #: Throttle/frequency settling delay (the paper assumes 0).
    settling_time_s: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.latency_jitter_sigma, "latency_jitter_sigma")
        check_positive(self.quantum_s, "quantum_s")
        check_non_negative(self.settling_time_s, "settling_time_s")


class SimulatedCore:
    """One core: dispatcher + actuator + counters + ground-truth execution."""

    def __init__(self, core_id: int, *, initial_freq_hz: float,
                 latencies: MemoryLatencyProfile = POWER4_LATENCIES,
                 config: CoreConfig | None = None,
                 rng: np.random.Generator | int | None = None) -> None:
        self.core_id = core_id
        self.latencies = latencies
        #: Fleet-kernel residency handle, set by :mod:`repro.sim.fleet` while
        #: this core's state lives in fleet columns.  Mutators call
        #: :meth:`_fleet_invalidate` so the fleet re-derives the lane.
        self._fleet = None
        self.config = config or CoreConfig()
        self.dispatcher = Dispatcher(quantum_s=self.config.quantum_s)
        self.actuator = ThrottleActuator(
            initial_freq_hz, settling_time_s=self.config.settling_time_s
        )
        self.counters = CounterBank()
        #: Off until a listening governor enables it at attach.
        self.idle_detector = IdleDetector(core_id)
        self._rng = make_rng(rng)
        #: Wall-clock seconds spent in each named phase (Figure 8 residency
        #: uses the scheduler log instead; this is ground truth for tests).
        self.phase_time_s: dict[str, float] = {}
        #: Wall-clock seconds spent executing at each exact frequency.
        self.freq_time_s: dict[float, float] = {}
        #: Daemon time owed but not yet executed (see :meth:`steal_time`).
        self._overhead_debt_s = 0.0
        #: Total daemon time executed on this core.
        self.overhead_executed_s = 0.0
        #: Powered-off flag (the node power-down baseline): an offline core
        #: executes nothing, draws nothing, and its jobs stall in place.
        self._offline = False
        #: Process-variation multiplier on this part's power draw (a leaky
        #: corner-lot part has > 1.0).  Performance is unaffected.
        self._power_scale = 1.0
        #: Block-drawn latency-jitter values, as (sigma, z_draws, jitters).
        #: The fleet columns refill this in blocks; ``_jitter_scale``
        #: consumes it first, so the RNG stream stays aligned no matter how
        #: scalar and columnar advances interleave.
        self._jitter_buf: tuple[float, list[float], list[float]] | None = None
        self._jitter_pos = 0

    # -- control interface (what the daemon touches) -----------------------------

    def _fleet_invalidate(self) -> None:
        """Tell the resident fleet (if any) this core's lane is stale."""
        fleet = self._fleet
        if fleet is not None:
            fleet.invalidate_core(self)

    @property
    def config(self) -> CoreConfig:
        """Tunables.  Replacing the config (e.g. a new jitter sigma)
        invalidates any resident fleet lane so the columns re-derive —
        the scalar path picks such changes up implicitly every slice."""
        return self._config

    @config.setter
    def config(self, value: CoreConfig) -> None:
        self._config = value
        self._fleet_invalidate()

    @property
    def offline(self) -> bool:
        """Powered-off flag (the node power-down baseline)."""
        return self._offline

    @offline.setter
    def offline(self, value: bool) -> None:
        self._offline = value
        self._fleet_invalidate()

    @property
    def power_scale(self) -> float:
        """Process-variation multiplier on this part's power draw."""
        return self._power_scale

    @power_scale.setter
    def power_scale(self, value: float) -> None:
        # The rule the energy ledger applies to the power it integrates,
        # checked here so NaN and inf fail on the columns as on the scalar.
        self._power_scale = check_non_negative(value, "power_scale")
        self._fleet_invalidate()

    def set_frequency(self, freq_hz: float, now_s: float) -> None:
        """Request an operating-point change."""
        self.actuator.set_frequency(freq_hz, now_s)
        self._fleet_invalidate()

    @property
    def frequency_setting_hz(self) -> float:
        """The most recently requested operating point."""
        return self.actuator.requested_hz

    def effective_frequency_hz(self, now_s: float) -> float:
        """The frequency the core is actually running at."""
        return self.actuator.effective_hz(now_s)

    def add_job(self, job: Job) -> None:
        """Assign a job to this core (lifetime affinity)."""
        self.dispatcher.add_job(job)
        self.idle_detector.note_queue_length(self.dispatcher.runnable)
        self._fleet_invalidate()

    @property
    def is_idle(self) -> bool:
        """True when the run queue is empty."""
        return self.dispatcher.runnable == 0

    # -- execution -----------------------------------------------------------------

    def _jitter_scale(self) -> float:
        sigma = self.config.latency_jitter_sigma
        if sigma <= 0.0:
            return 1.0
        buf = self._jitter_buf
        if buf is not None and self._jitter_pos < len(buf[1]):
            i = self._jitter_pos
            self._jitter_pos = i + 1
            if buf[0] == sigma:
                return buf[2][i]
            # Sigma changed under a live buffer: reuse the z draw so the
            # stream stays aligned, recompute the scale.
            return float(np.exp(sigma * buf[1][i]))
        return float(np.exp(sigma * self._rng.standard_normal()))

    def _refill_jitter(self, n: int) -> None:
        """Extend the jitter buffer with ``n`` block-drawn values.

        ``standard_normal(n)`` produces the same stream as ``n`` scalar
        draws and vectorised ``exp`` matches scalar ``exp`` bit-for-bit, so
        buffered values equal what ``_jitter_scale`` would have computed.
        """
        sigma = self.config.latency_jitter_sigma
        z = self._rng.standard_normal(n)
        zs = z.tolist()
        js = np.exp(sigma * z).tolist()
        buf = self._jitter_buf
        if buf is not None and self._jitter_pos < len(buf[1]):
            rest = buf[1][self._jitter_pos:]
            if buf[0] == sigma:
                zs = rest + zs
                js = buf[2][self._jitter_pos:] + js
            else:
                zs = rest + zs
                js = [float(np.exp(sigma * zz)) for zz in rest] + js
        self._jitter_buf = (sigma, zs, js)
        self._jitter_pos = 0

    def _record_residency(self, phase_name: str, freq_hz: float, dt: float) -> None:
        self.phase_time_s[phase_name] = self.phase_time_s.get(phase_name, 0.0) + dt
        self.freq_time_s[freq_hz] = self.freq_time_s.get(freq_hz, 0.0) + dt

    def advance(self, start_s: float, dt: float) -> None:
        """Execute ``dt`` seconds of wall time starting at ``start_s``."""
        check_non_negative(dt, "dt")
        if self.offline:
            self._record_residency("__offline__", 0.0, dt)
            return
        t = start_s
        end = start_s + dt
        while end - t > _MIN_SLICE_S:
            t = self._advance_slice(t, end)

    def _advance_slice(self, t: float, end: float) -> float:
        """Run one stationary slice; returns the new time."""
        freq = self.actuator.effective_hz(t)
        limit = end - t
        settle_at = self.actuator.next_change_time(t)
        if settle_at is not None:
            limit = min(limit, settle_at - t)
            if limit <= _MIN_SLICE_S:
                # Exactly at the settling boundary: let it settle and retry.
                self.actuator.effective_hz(settle_at)
                return max(t, settle_at)

        if self._overhead_debt_s > _MIN_SLICE_S:
            return self._advance_overhead(t, freq, limit)

        job = self.dispatcher.current_job()
        self.idle_detector.note_queue_length(self.dispatcher.runnable)

        if job is None:
            return self._advance_idle(t, freq, limit)

        job.mark_started(t)
        phase = job.current_phase
        jitter = self._jitter_scale()
        throughput = phase.throughput(self.latencies, freq, latency_scale=jitter)
        if throughput <= 0.0:
            raise SimulationError(f"non-positive throughput on core {self.core_id}")

        slice_limit = self.dispatcher.slice_limit_s()
        time_to_phase_end = job.remaining_in_phase / throughput
        chunk = min(limit, slice_limit, time_to_phase_end)
        chunk = max(chunk, _MIN_SLICE_S)

        if chunk >= time_to_phase_end:
            chunk = time_to_phase_end
            instructions = job.remaining_in_phase
        else:
            instructions = throughput * chunk
        if instructions <= 0.0:
            # Degenerate float corner: force the phase boundary across.
            instructions = job.remaining_in_phase
            chunk = time_to_phase_end

        self.counters.add_execution(phase.counts_for(instructions),
                                    cycles=freq * chunk)
        self._record_residency(phase.name, freq, chunk)
        job.retire(instructions, t + chunk)
        self.dispatcher.account_run(job, chunk, t + chunk)
        self.idle_detector.note_queue_length(self.dispatcher.runnable)
        return t + chunk

    def _advance_idle(self, t: float, freq: float, limit: float) -> float:
        chunk = max(limit, _MIN_SLICE_S)
        if self.config.idle_style is IdleStyle.HOT_LOOP:
            phase = HOT_IDLE_PHASE
            throughput = phase.throughput(self.latencies, freq)
            self.counters.add_execution(
                phase.counts_for(throughput * chunk), cycles=freq * chunk
            )
            self._record_residency(phase.name, freq, chunk)
        else:
            self.counters.add_halted(freq * chunk)
            self._record_residency("__halted__", freq, chunk)
        return t + chunk

    def _advance_overhead(self, t: float, freq: float, limit: float) -> float:
        chunk = max(min(limit, self._overhead_debt_s), _MIN_SLICE_S)
        phase = DAEMON_OVERHEAD_PHASE
        throughput = phase.throughput(self.latencies, freq)
        self.counters.add_execution(
            phase.counts_for(throughput * chunk), cycles=freq * chunk
        )
        self._record_residency(phase.name, freq, chunk)
        self._overhead_debt_s = max(0.0, self._overhead_debt_s - chunk)
        self.overhead_executed_s += chunk
        return t + chunk

    def steal_time(self, dt: float) -> None:
        """Charge ``dt`` seconds of fvsst's own execution to this core
        (Figure 4's overhead).

        The debt is consumed at the *front* of the next :meth:`advance`
        call: jobs make no progress while it drains, and the daemon phase's
        CPU-bound counter footprint slightly pollutes the next prediction —
        both effects the paper's Figure 4 bundles together.
        """
        check_non_negative(dt, "dt")
        self._overhead_debt_s += dt
        self._fleet_invalidate()
