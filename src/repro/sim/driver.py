"""The simulation loop.

A :class:`Simulation` owns the clock and event queue and advances one or
more machines between events.  Periodic activities (the daemon's counter
sampling, its scheduling pass) register as self-rescheduling
:class:`PeriodicTask` objects; one-off occurrences (a PSU failure at ``T0``,
a curtailment request) schedule once.

The loop guarantees machines never integrate across an event boundary, so
frequency changes made inside callbacks take effect at exact simulation
times.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Sequence

from ..errors import SimulationError
from ..telemetry import Telemetry, get_telemetry
from ..units import check_non_negative, check_positive
from .clock import SimClock
from .events import Event, EventQueue
from .fleet import advance_machines, flush_machines
from .machine import SMPMachine

__all__ = ["Simulation", "PeriodicTask"]


class PeriodicTask:
    """A self-rescheduling periodic callback.

    The callback may raise ``StopIteration`` to end the chain, or the owner
    may call :meth:`cancel`.
    """

    def __init__(self, queue: EventQueue, period_s: float,
                 callback: Callable[[float], None], first_time_s: float,
                 name: str) -> None:
        check_positive(period_s, "period_s")
        self._queue = queue
        self.period_s = period_s
        self._callback = callback
        self.name = name
        self._cancelled = False
        self._handle: Event = queue.schedule(first_time_s, self._fire, name=name)

    def _fire(self, t: float) -> None:
        if self._cancelled:
            return
        try:
            self._callback(t)
        except StopIteration:
            self._cancelled = True
            return
        if not self._cancelled:
            self._handle = self._queue.schedule(
                t + self.period_s, self._fire, name=self.name
            )

    def cancel(self) -> None:
        """Stop the chain; pending firing is skipped."""
        self._cancelled = True
        self._handle.cancel()

    @property
    def next_time_s(self) -> float | None:
        """When the task will next fire (None once cancelled)."""
        return None if self._cancelled else self._handle.time_s


class Simulation:
    """Event-driven driver over one or more machines."""

    def __init__(self, machines: SMPMachine | Sequence[SMPMachine], *,
                 start_s: float = 0.0,
                 telemetry: Telemetry | None = None) -> None:
        if isinstance(machines, SMPMachine):
            machines = [machines]
        if not machines:
            raise SimulationError("a simulation needs at least one machine")
        self.machines: list[SMPMachine] = list(machines)
        self.clock = SimClock(start_s)
        self.events = EventQueue()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        m = self.telemetry.metrics
        self._m_dispatched = m.counter(
            "sim_events_dispatched_total", "Simulation events fired")
        self._m_callback_seconds = m.histogram(
            "sim_callback_seconds",
            "Wall-clock latency of each fired event callback")
        self._m_fleet_advances = m.counter(
            "sim_fleet_advances_total",
            "Machine-spans advanced through fleet columns")
        self._m_fleet_fallbacks = m.counter(
            "sim_fleet_fallbacks_total",
            "Machine-spans delegated to the scalar path")
        #: This run's residency: machine-spans advanced through the fleet
        #: columns, and machine-spans delegated to ``machine.advance`` per
        #: fallback reason.
        self.fleet_advances = 0
        self.fleet_fallbacks: Counter[str] = Counter()
        # Per-event stats batch locally and flush when run_until returns
        # (and on any snapshot), keeping the dispatch loop lock-free; the
        # residency tallies export as deltas past what was flushed.
        self._pending_dispatched = 0
        self._pending_callback_s: list[float] = []
        self._flushed_advances = 0
        self._flushed_fallbacks: Counter[str] = Counter()
        if self.telemetry.enabled:
            self.telemetry.add_flusher(self._flush_dispatch_stats)

    @property
    def now_s(self) -> float:
        return self.clock.now_s

    # -- scheduling ------------------------------------------------------------------

    def at(self, time_s: float, callback: Callable[[float], None], *,
           name: str = "") -> Event:
        """Schedule a one-off callback at absolute time ``time_s``."""
        if time_s < self.now_s:
            raise SimulationError(
                f"cannot schedule at {time_s} (now is {self.now_s})"
            )
        return self.events.schedule(time_s, callback, name=name)

    def after(self, delay_s: float, callback: Callable[[float], None], *,
              name: str = "") -> Event:
        """Schedule a one-off callback ``delay_s`` from now."""
        check_non_negative(delay_s, "delay_s")
        return self.at(self.now_s + delay_s, callback, name=name)

    def every(self, period_s: float, callback: Callable[[float], None], *,
              name: str = "", start_offset_s: float | None = None) -> PeriodicTask:
        """Register a periodic callback.

        The first firing is at ``now + (start_offset_s if given else
        period_s)``; each firing reschedules the next.
        """
        offset = period_s if start_offset_s is None else start_offset_s
        check_non_negative(offset, "start_offset_s")
        return PeriodicTask(self.events, period_s, callback,
                            self.now_s + offset, name)

    # -- running ---------------------------------------------------------------------

    def _advance_machines(self, dt: float) -> None:
        # One fleet advance per event-free span; resident machines stay in
        # fleet columns between spans (counters still synchronise on
        # snapshot) and flush when run_until returns.
        advances, fallbacks = advance_machines(self.machines, dt, flush=False)
        self.fleet_advances += advances
        if fallbacks:
            self.fleet_fallbacks.update(fallbacks)

    def run_until(self, t_end_s: float) -> None:
        """Advance simulation time to ``t_end_s``, firing events on the way."""
        if t_end_s < self.now_s:
            raise SimulationError(
                f"cannot run to {t_end_s} (now is {self.now_s})"
            )
        instrumented = self.telemetry.enabled
        try:
            while True:
                next_event = self.events.next_time()
                if next_event is None or next_event > t_end_s:
                    self._advance_machines(t_end_s - self.now_s)
                    self.clock.advance_to(t_end_s)
                    if instrumented:
                        self._flush_dispatch_stats()
                    return
                self._advance_machines(max(0.0, next_event - self.now_s))
                self.clock.advance_to(max(next_event, self.now_s))
                if instrumented:
                    self._run_due_instrumented(self.now_s)
                else:
                    self.events.run_due(self.now_s)
        finally:
            flush_machines(self.machines)

    def _run_due_instrumented(self, now_s: float) -> None:
        """``EventQueue.run_due`` with per-callback latency accounting."""
        while True:
            event = self.events.pop_due(now_s)
            if event is None:
                return
            wall0 = time.perf_counter()
            event.callback(event.time_s)
            self._pending_callback_s.append(time.perf_counter() - wall0)
            self._pending_dispatched += 1

    def _flush_dispatch_stats(self) -> None:
        """Push event-batched stats into the registry (one lock per batch)."""
        if self._pending_dispatched:
            self._m_dispatched.inc(self._pending_dispatched)
            self._pending_dispatched = 0
        if self._pending_callback_s:
            self._m_callback_seconds.observe_many(self._pending_callback_s)
            self._pending_callback_s = []
        advances = self.fleet_advances - self._flushed_advances
        if advances:
            self._m_fleet_advances.inc(advances)
            self._flushed_advances = self.fleet_advances
        fallbacks = self.fleet_fallbacks - self._flushed_fallbacks
        if fallbacks:
            for reason, k in fallbacks.items():
                self._m_fleet_fallbacks.inc(k)
                self.telemetry.metrics.counter(
                    "sim_fleet_fallbacks_total",
                    "Machine-spans delegated to the scalar path",
                    labels={"reason": reason}).inc(k)
            self._flushed_fallbacks = self.fleet_fallbacks.copy()

    def run_for(self, duration_s: float) -> None:
        """Advance by ``duration_s``."""
        check_non_negative(duration_s, "duration_s")
        self.run_until(self.now_s + duration_s)
