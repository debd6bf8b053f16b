"""The fvsst daemon (Section 6).

A privileged user-level process that periodically reads the performance
counters of every processor (period ``t``), runs the Figure 3 scheduling
calculation every ``T = n * t`` (or immediately on a power-limit trigger),
applies the chosen frequencies through the throttle actuators, and logs
both streams.  Its own execution steals core time according to an
:class:`OverheadModel` — the overhead Figure 4 measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .. import constants
from ..errors import SchedulingError
from ..sim.counters import CounterReader, CounterSample
from ..sim.driver import Simulation
from ..sim.machine import SMPMachine
from ..sim.rng import spawn_rngs
from ..telemetry import (
    EVENT_BUDGET_BREACH,
    EVENT_CURTAILMENT,
    EVENT_FREQUENCY_CHANGE,
    Telemetry,
    get_telemetry,
)
from ..units import check_non_negative, check_positive
from .governor import Governor
from .logs import CounterLogEntry, FvsstLog
from .predictor import CounterPredictor, PredictorProtocol
from .scheduler import FrequencyVoltageScheduler, ProcessorView, Schedule

__all__ = [
    "OverheadModel", "PER_CORE_OVERHEAD", "DaemonConfig", "FvsstDaemon",
]


@dataclass(frozen=True, slots=True)
class OverheadModel:
    """CPU time fvsst's own code consumes.

    By default every cost is charged to the daemon's host core: the
    single-threaded prototype.  ``per_core`` places the costs as Section
    9's design would, with two threads per processor: "one thread on each
    processor collects the performance counter data ... while the other
    one controls the throttling or frequency and voltage scaling for it".
    Each counter read is then charged to the sampled core and each
    actuation to the actuated core; only the scheduling calculation stays
    on the daemon core.
    """

    #: Reading one core's counters through the kernel interface.
    sample_cost_s: float = 25e-6
    #: One scheduling calculation (all processors).
    schedule_cost_s: float = 150e-6
    #: Applying one frequency change through the throttle interface.
    actuation_cost_s: float = 10e-6
    enabled: bool = True
    #: Charge reads and actuations to the cores they touch.
    per_core: bool = False

    def __post_init__(self) -> None:
        check_non_negative(self.sample_cost_s, "sample_cost_s")
        check_non_negative(self.schedule_cost_s, "schedule_cost_s")
        check_non_negative(self.actuation_cost_s, "actuation_cost_s")


#: Section 9's two-threads-per-processor costs: a user-level counter read
#: (no kernel crossing) and a user-level actuation, each charged to the
#: core it touches, and the centralised scheduling calculation.
PER_CORE_OVERHEAD = OverheadModel(sample_cost_s=6e-6, schedule_cost_s=150e-6,
                                  actuation_cost_s=8e-6, per_core=True)

#: Measured feedback (``DaemonConfig.measured_feedback``): the proportional
#: gain applied to the measured excess over the limit.
_FEEDBACK_GAIN = 0.8
#: Fraction of the remaining gap recovered per pass, but only while the
#: measured draw sits below the limit by ``_FEEDBACK_MARGIN`` (a deadband
#: that prevents the tighten/relax limit cycle).
_FEEDBACK_RELAX = 0.10
#: Relative headroom required before the planning limit relaxes.
_FEEDBACK_MARGIN = 0.03


@dataclass(frozen=True)
class DaemonConfig:
    """fvsst tunables (defaults are the paper's: t=10 ms, T=100 ms)."""

    epsilon: float = constants.DEFAULT_EPSILON
    #: Counter sampling period t.
    sample_period_s: float = constants.DEFAULT_DISPATCH_PERIOD_S
    #: Scheduling every n samples (T = n * t).
    schedule_every: int = 10
    #: Global processor power limit (None = unconstrained).
    power_limit_w: float | None = None
    #: Multiplicative noise on counter reads.
    counter_noise_sigma: float = 0.005
    #: Core the single-threaded daemon runs on.
    daemon_core: int = 0
    overhead: OverheadModel = field(default_factory=OverheadModel)
    #: Subscribe to idle signals and pin idle processors at f_min.
    idle_detection: bool = False
    #: Infer idleness from the halted-cycle counter instead of (or in
    #: addition to) explicit signals: a window whose halted fraction
    #: exceeds this threshold marks the processor idle for the next pass.
    #: Section 5: "If the processor idles by halting and has a performance
    #: counter that tracks the number of halted cycles, then there is no
    #: need for the idle indicator."  ``None`` disables the inference
    #: (meaningless on hot-idling parts, whose counter never moves).
    halted_idle_threshold: float | None = None
    #: Close the loop against the power meter (Section 5: "the use of
    #: power measurement ... ensures that the system stays below the
    #: absolute limit").  When the *measured* processor draw exceeds the
    #: limit — table drift, process variation, meter truth vs belief —
    #: the daemon tightens an internal planning limit proportionally and
    #: relaxes it back when headroom reappears.
    measured_feedback: bool = False
    #: Node id used in logs and views (single-machine daemons are node 0).
    node_id: int = 0

    def __post_init__(self) -> None:
        check_positive(self.sample_period_s, "sample_period_s")
        if self.schedule_every < 1:
            raise SchedulingError("schedule_every must be >= 1")
        if self.power_limit_w is not None:
            check_positive(self.power_limit_w, "power_limit_w")
        check_non_negative(self.counter_noise_sigma, "counter_noise_sigma")
        if self.halted_idle_threshold is not None and not \
                0.0 < self.halted_idle_threshold <= 1.0:
            raise SchedulingError(
                "halted_idle_threshold must lie in (0, 1]"
            )

    @property
    def schedule_period_s(self) -> float:
        """T = n * t."""
        return self.sample_period_s * self.schedule_every


class FvsstDaemon(Governor):
    """The frequency and voltage scheduler daemon."""

    name = "fvsst"

    def __init__(self, machine: SMPMachine,
                 config: DaemonConfig | None = None, *,
                 scheduler: FrequencyVoltageScheduler | None = None,
                 predictor: PredictorProtocol | None = None,
                 telemetry: Telemetry | None = None,
                 seed: int | None = None) -> None:
        super().__init__(machine)
        self.config = config or DaemonConfig()
        cfg = self.config
        if not 0 <= cfg.daemon_core < machine.num_cores:
            raise SchedulingError(
                f"daemon_core {cfg.daemon_core} out of range"
            )
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.scheduler = scheduler or FrequencyVoltageScheduler(
            machine.table, epsilon=cfg.epsilon, telemetry=self.telemetry
        )
        self.predictor = predictor or CounterPredictor(machine.config.latencies)
        rngs = spawn_rngs(seed, machine.num_cores)
        self.readers = [
            CounterReader(core.counters,
                          noise_sigma=cfg.counter_noise_sigma, rng=rngs[i])
            for i, core in enumerate(machine.cores)
        ]
        self.log = FvsstLog()
        self.power_limit_w = cfg.power_limit_w
        self._windows: list[list[CounterSample]] = [
            [] for _ in machine.cores
        ]
        self._cached_views: list[ProcessorView] | None = None
        self._idle_flags = [False] * machine.num_cores
        self._sample_count = 0
        #: Per-processor frequency ceiling (thermal throttle), if any.
        self.frequency_cap_hz: float | None = None
        #: Internal planning limit maintained by the measured-power
        #: feedback loop (None until the loop engages).
        self._planning_limit_w: float | None = None
        #: Last schedule applied (None before the first pass).
        self.last_schedule: Schedule | None = None
        m = self.telemetry.metrics
        self._m_sample_ticks = m.counter(
            "fvsst_sample_ticks_total", "Counter-sampling timer firings")
        self._m_samples = m.counter(
            "fvsst_counter_samples_total", "Per-processor counter reads")
        self._m_sample_seconds = m.histogram(
            "fvsst_sample_pass_seconds",
            "Wall-clock latency of one sampling pass (all processors)")
        self._m_sched_passes = m.counter(
            "fvsst_schedule_passes_total", "Daemon scheduling passes")
        self._m_sched_seconds = m.histogram(
            "fvsst_schedule_pass_seconds",
            "Wall-clock latency of one daemon scheduling pass")
        self._m_transitions = m.counter(
            "fvsst_frequency_transitions_total",
            "Applied frequency changes (actuations)")
        self._m_breaches = m.counter(
            "fvsst_budget_breaches_total",
            "Passes whose step-1 demand exceeded the power limit")
        self._m_planned_power = m.gauge(
            "fvsst_planned_power_watts",
            "Total scheduled processor power of the last pass")
        self._m_limit = m.gauge(
            "fvsst_power_limit_watts",
            "Power limit in force (-1 when unconstrained)")
        # Per-tick stats batch locally (plain attribute updates) and
        # flush into the registry once per scheduling pass / snapshot.
        self._pending_ticks = 0
        self._pending_sample_s: list[float] = []
        if self.telemetry.enabled:
            self.telemetry.add_flusher(self._flush_sample_stats)

    # -- attachment ---------------------------------------------------------------

    def attach(self, sim: Simulation) -> None:
        """Install the periodic sampler (and idle subscriptions)."""
        super().attach(sim)
        if self.config.idle_detection:
            for core in self.machine.cores:
                core.idle_detector.enabled = True
                core.idle_detector.subscribe(self._on_idle_signal)
        sim.every(self.config.sample_period_s, self._on_sample_tick,
                  name="fvsst-sample")

    # -- the sampling/scheduling loop --------------------------------------------------

    def _charge_overhead(self, cost_s: float) -> None:
        """Bulk charge to the daemon core (the single-threaded placement)."""
        overhead = self.config.overhead
        if overhead.enabled and not overhead.per_core and cost_s > 0.0:
            self.machine.core(self.config.daemon_core).steal_time(cost_s)

    def _charge_core(self, core, cost_s: float) -> None:
        """Charge to the core a per-processor thread runs on
        (``OverheadModel.per_core``)."""
        overhead = self.config.overhead
        if overhead.enabled and overhead.per_core:
            core.steal_time(cost_s)

    def _on_sample_tick(self, now_s: float) -> None:
        if self.telemetry.enabled:
            wall0 = time.perf_counter()
            self._collect_samples(now_s)
            self._pending_ticks += 1
            self._pending_sample_s.append(time.perf_counter() - wall0)
        else:
            self._collect_samples(now_s)
        self._sample_count += 1
        if self._sample_count % self.config.schedule_every == 0:
            self._run_schedule(now_s)

    def _flush_sample_stats(self) -> None:
        """Push tick-batched stats into the registry (one lock per batch)."""
        if self._pending_ticks:
            self._m_sample_ticks.inc(self._pending_ticks)
            self._m_samples.inc(self._pending_ticks * self.machine.num_cores)
            self._pending_ticks = 0
        if self._pending_sample_s:
            self._m_sample_seconds.observe_many(self._pending_sample_s)
            self._pending_sample_s = []

    def _collect_samples(self, now_s: float) -> None:
        """Read every processor's counters and charge the reads."""
        cfg = self.config
        sample_cost_s = cfg.overhead.sample_cost_s
        for i, reader in enumerate(self.readers):
            sample = reader.sample(now_s)
            self._windows[i].append(sample)
            self.log.record_sample(CounterLogEntry(
                time_s=now_s, node_id=cfg.node_id, proc_id=i, sample=sample,
            ))
            # A per-core collector thread runs on the core it samples.
            self._charge_core(self.machine.core(i), sample_cost_s)
        self._charge_overhead(sample_cost_s * self.machine.num_cores)

    def _aggregate_window(self, proc: int, now_s: float) -> CounterSample | None:
        window = self._windows[proc]
        if not window:
            return None
        # Plain left-to-right adds from 0, as ``sum`` did up to Python
        # 3.11; 3.12's ``sum`` compensates, which would move the outputs.
        interval = instr = cycles = l2 = l3 = mem = l1 = halted = 0
        for s in window:
            interval += s.interval_s
            instr += s.instructions
            cycles += s.cycles
            l2 += s.n_l2
            l3 += s.n_l3
            mem += s.n_mem
            l1 += s.l1_stall_cycles
            halted += s.halted_cycles
        return CounterSample(
            time_s=now_s, interval_s=interval, instructions=instr,
            cycles=cycles, n_l2=l2, n_l3=l3, n_mem=mem,
            l1_stall_cycles=l1, halted_cycles=halted,
        )

    def _build_views(self, now_s: float) -> list[ProcessorView]:
        views: list[ProcessorView] = []
        threshold = self.config.halted_idle_threshold
        for i in range(self.machine.num_cores):
            aggregate = self._aggregate_window(i, now_s)
            signature = (None if aggregate is None
                         else self.predictor.signature_from_sample(aggregate))
            if signature is None and self._cached_views is not None:
                # Window too thin (e.g. a trigger fired mid-window): fall
                # back to the last pass's knowledge.
                signature = self._cached_views[i].signature
            idle = self._idle_flags[i]
            if (threshold is not None and aggregate is not None
                    and aggregate.halted_fraction >= threshold):
                # Halting hardware: the counter itself is the idle
                # indicator (Section 5) — no explicit signal required.
                idle = True
            views.append(ProcessorView(
                node_id=self.config.node_id,
                proc_id=i,
                signature=signature,
                idle_signaled=idle,
            ))
        return views

    def _effective_limit_w(self, now_s: float) -> float | None:
        """The limit the scheduler plans against this pass.

        With measured feedback enabled, the measured processor draw is
        compared with the hard limit: excess tightens the internal
        planning limit proportionally; compliance relaxes it back toward
        the hard limit.
        """
        if self.power_limit_w is None:
            self._planning_limit_w = None
            return None
        if not self.config.measured_feedback:
            return self.power_limit_w
        if self._planning_limit_w is None:
            self._planning_limit_w = self.power_limit_w
        measured = self.machine.measure_cpu_power_w()
        excess = measured - self.power_limit_w
        if excess > 0.0:
            floor = self.machine.num_cores * self.machine.table.min_power_w
            self._planning_limit_w = max(
                floor * 0.5, self._planning_limit_w - _FEEDBACK_GAIN * excess
            )
        elif measured <= self.power_limit_w * (1.0 - _FEEDBACK_MARGIN):
            # Deadband: only creep back up with real headroom in hand.
            gap = self.power_limit_w - self._planning_limit_w
            self._planning_limit_w += _FEEDBACK_RELAX * gap
        return min(self._planning_limit_w, self.power_limit_w)

    def _run_schedule(self, now_s: float) -> None:
        tel = self.telemetry
        if not tel.enabled:
            self._schedule_pass(now_s)
            return
        wall0 = time.perf_counter()
        with tel.tracer.span("fvsst.schedule_pass", sim_time_s=now_s,
                             node=self.config.node_id) as span:
            schedule, transitions = self._schedule_pass(now_s)
            span.set_attr("transitions", transitions)
            span.set_attr("total_power_w", schedule.total_power_w)
            span.set_attr("infeasible", schedule.infeasible)
        elapsed = time.perf_counter() - wall0
        self._flush_sample_stats()
        self._m_sched_passes.inc()
        self._m_sched_seconds.observe(elapsed)
        self._m_transitions.inc(transitions)
        self._m_planned_power.set(schedule.total_power_w)
        self._m_limit.set(-1.0 if self.power_limit_w is None
                          else self.power_limit_w)
        if schedule.reduction_steps or schedule.infeasible:
            self._m_breaches.inc()
            tel.emit(EVENT_BUDGET_BREACH, sim_time_s=now_s,
                     node=self.config.node_id,
                     limit_w=schedule.power_limit_w,
                     planned_power_w=schedule.total_power_w,
                     reduction_steps=schedule.reduction_steps,
                     infeasible=schedule.infeasible)

    def _schedule_pass(self, now_s: float) -> tuple[Schedule, int]:
        """One full pass: views → schedule → actuation → logs."""
        cfg = self.config
        views = self._build_views(now_s)
        self._cached_views = views
        schedule = self.scheduler.schedule(views,
                                           self._effective_limit_w(now_s),
                                           max_freq_hz=self.frequency_cap_hz,
                                           on_infeasible="floor")
        transitions = self._apply(schedule, now_s)
        self._charge_overhead(cfg.overhead.schedule_cost_s
                              + cfg.overhead.actuation_cost_s * transitions)
        # Assignments are NamedTuples: one zip transposes every field.
        (node_ids, proc_ids, freqs_hz, voltages, powers_w,
         predicted_losses, eps_freqs_hz) = zip(*schedule.assignments)
        self.log.record_schedule_pass(
            now_s, node_ids, proc_ids, freqs_hz, eps_freqs_hz,
            voltages, powers_w, predicted_losses,
            predicted_ipcs=[None if view.signature is None
                            else view.signature.ipc(freq)
                            for view, freq in zip(views, freqs_hz)],
            power_limit_w=self.power_limit_w,
            infeasible=schedule.infeasible,
        )
        self.last_schedule = schedule
        for w in self._windows:
            w.clear()
        return schedule, transitions

    def _apply(self, schedule: Schedule, now_s: float) -> int:
        """Push the decision into the actuators; returns transition count."""
        tel = self.telemetry
        transitions = 0
        for assignment in schedule.assignments:
            core = self.machine.core(assignment.proc_id)
            old_hz = core.frequency_setting_hz
            if old_hz != assignment.freq_hz:
                transitions += 1
                # A per-core actuator thread runs on the core it throttles.
                self._charge_core(core, self.config.overhead.actuation_cost_s)
                if tel.enabled:
                    tel.emit(EVENT_FREQUENCY_CHANGE, sim_time_s=now_s,
                             node=self.config.node_id,
                             proc=assignment.proc_id,
                             old_hz=old_hz, new_hz=assignment.freq_hz)
            core.set_frequency(assignment.freq_hz, now_s)
        self._charge_core(self.machine.core(self.config.daemon_core),
                          self.config.overhead.schedule_cost_s)
        return transitions

    # -- triggers --------------------------------------------------------------------

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        """Install a new global limit and reschedule immediately.

        This is the rapid-response path of the motivating example: the
        system must be under the new limit well before the supply cascade
        deadline, so the daemon does not wait for the next timer firing.
        """
        check_non_negative(now_s, "now_s")
        if limit_w is not None:
            check_positive(limit_w, "limit_w")
        self.power_limit_w = limit_w
        self._planning_limit_w = None   # feedback restarts at the new limit
        if self.telemetry.enabled:
            self.telemetry.emit(EVENT_CURTAILMENT, sim_time_s=now_s,
                                node=self.config.node_id,
                                new_limit_w=limit_w)
        self._run_schedule(now_s)

    def set_frequency_cap(self, cap_hz: float | None, now_s: float) -> None:
        """Install (or lift, with ``None``) a per-processor frequency
        ceiling and reschedule immediately.

        This is the thermal-throttle path: unlike the aggregate power
        limit, a ceiling bounds *every* processor, so the hottest core's
        power is actually constrained (see the thermal experiment).
        """
        self.frequency_cap_hz = cap_hz
        self._run_schedule(now_s)

    def _on_idle_signal(self, core_id: int, is_idle: bool) -> None:
        """A core entered or left the idle loop (Section 5's idle
        trigger)."""
        now_s = self.sim.now_s
        self._idle_flags[core_id] = is_idle
        if is_idle:
            # Pin the idle processor at the floor immediately (Section 5).
            self.machine.core(core_id).set_frequency(
                self.machine.table.f_min_hz, now_s)
        else:
            # Leaving idle: resume normal operation right away rather than
            # waiting out the timer at the floor frequency.
            self._run_schedule(now_s)

    # -- conveniences -----------------------------------------------------------------

    def with_config(self, **changes) -> "FvsstDaemon":
        """A fresh daemon on the same machine with amended config (used by
        parameter-sweep benches)."""
        return FvsstDaemon(self.machine, replace(self.config, **changes),
                           scheduler=self.scheduler, predictor=self.predictor,
                           telemetry=self.telemetry)
