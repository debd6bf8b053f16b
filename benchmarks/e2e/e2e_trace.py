"""Per-layer host-time attribution for one traced workload run.

Spans are recorded from the benchmark's own code, by wrapping the public
entry point of each layer; nothing in ``src/`` is instrumented.  A small
span stack turns the wrapped calls into *self* times: each span's duration
minus the part its child spans cover.  Every span belongs to one layer,
named by the module it times:

==================  ====================================================
layer               wrapped entry points
==================  ====================================================
driver              each timed ``sim.run_for`` segment (event loop, heap)
fleet.columns       ``repro.sim.driver.advance_machines`` (fleet kernel)
machine.delegate    ``SMPMachine.advance`` (delegated machines)
agent.sample        ``agent-n*-sample`` events (counter sampling)
coord.dispatch      ``ClusterCoordinator.run_global_pass`` self time
coord.collect       ``NodeAgent.make_report``
coord.predict       ``predictor.signatures_from_arrays``
coord.schedule      ``scheduler.schedule`` / ``schedule_nested``
coord.record        ``log.record_schedule_pass``
net.delivery        ``apply-cmd``/``ack-cmd``/``retry-cmd``/``apply-lease``
traffic.arrival     ``request-arrival`` events (thinning, enqueue)
traffic.harvest     ``FleetTrafficSource.harvest``
hier.rebalance      ``FleetAllocator.run_rebalance``
hier.summary        ``ShardCoordinator.make_summary``
hier.lease          ``ShardCoordinator.apply_lease``
log.query           ``log.power_series``
==================  ====================================================

Events are bucketed by name: the traced run replaces the simulation's
``events.run_due`` with the same pop-and-fire loop (built on the public
``pop_due``) that opens one span per fired callback.  Class- and
module-level patches are undone on exit, so an untraced run in the same
process is untouched; patching a method in place keeps every
type-identity check in the simulator as it was.
"""

from __future__ import annotations

import re
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import repro.sim.driver as sim_driver
from repro.core.logs import FvsstLog
from repro.sim import fleet as sim_fleet
from repro.sim.machine import SMPMachine

from e2e_clock import clock
from e2e_workloads import Scenario

#: Event-name prefix -> layer.  Periodic pass and rebalance ticks only
#: call the wrapped pass, so they stay driver time and the wrapped call
#: counts equal the passes run.
_EVENT_LAYER = {
    "agent": "agent.sample",
    "apply-cmd": "net.delivery",
    "ack-cmd": "net.delivery",
    "retry-cmd": "net.delivery",
    "apply-lease": "net.delivery",
    "request-arrival": "traffic.arrival",
}
#: Strips the per-node / per-shard suffix of an event name.
_EVENT_ID = re.compile(r"-[ns]\d+.*$")


class SpanStack:
    """Self-time and call-count accumulators over nested spans, plus the
    events the traced loop fired (counted per layer)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.event_counts: dict[str, int] = defaultdict(int)
        self.events = 0
        #: Child time covered so far, one slot per open span.
        self._open: list[list[float]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.event_counts.clear()
        self.events = 0

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        frame = [0.0]
        stack = self._open
        stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += dt

    def wrap(self, layer: str, fn: Callable) -> Callable:
        call = self.call

        def traced(*args, **kwargs):
            return call(layer, fn, *args, **kwargs)

        return traced


def _wrap_attr(spans: SpanStack, obj, name: str, layer: str) -> None:
    """Wrap ``obj.name`` on the instance, if ``obj`` has it."""
    fn = getattr(obj, name, None)
    if fn is not None:
        setattr(obj, name, spans.wrap(layer, fn))


def _traced_run_due(spans: SpanStack, events) -> Callable:
    pop_due = events.pop_due
    layers: dict[str, str] = {}

    def run_due(now_s: float) -> int:
        fired = 0
        while True:
            event = pop_due(now_s)
            if event is None:
                return fired
            layer = layers.get(event.name)
            if layer is None:
                layer = _EVENT_LAYER.get(_EVENT_ID.sub("", event.name),
                                         "driver")
                layers[event.name] = layer
            spans.events += 1
            spans.event_counts[layer] += 1
            spans.call(layer, event.callback, event.time_s)
            fired += 1

    return run_due


@contextmanager
def traced(sc: Scenario, spans: SpanStack):
    """Install every layer wrapper on ``sc`` for the duration.

    Shared entry points (a module function, ``SMPMachine.advance``, the
    slotted ``FvsstLog``) are patched on their module or class and put
    back on exit; everything else is wrapped on the instance."""
    shared = [(sim_driver, "advance_machines", "fleet.columns"),
              (SMPMachine, "advance", "machine.delegate"),
              (FvsstLog, "record_schedule_pass", "coord.record"),
              (FvsstLog, "power_series", "log.query")]
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in shared]
    for owner, name, layer in shared:
        setattr(owner, name, spans.wrap(layer, getattr(owner, name)))
    sc.sim.events.run_due = _traced_run_due(spans, sc.sim.events)
    for coord in sc.coordinators:
        _wrap_attr(spans, coord, "run_global_pass", "coord.dispatch")
        for agent in coord.agents:
            _wrap_attr(spans, agent, "make_report", "coord.collect")
        _wrap_attr(spans, coord.predictor, "signatures_from_arrays",
                   "coord.predict")
        _wrap_attr(spans, coord.scheduler, "schedule", "coord.schedule")
        _wrap_attr(spans, coord.scheduler, "schedule_nested",
                   "coord.schedule")
        _wrap_attr(spans, coord, "make_summary", "hier.summary")
        _wrap_attr(spans, coord, "apply_lease", "hier.lease")
    if sc.allocator is not None:
        _wrap_attr(spans, sc.allocator, "run_rebalance", "hier.rebalance")
    if sc.traffic is not None:
        _wrap_attr(spans, sc.traffic, "harvest", "traffic.harvest")
    try:
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
        del sc.sim.events.run_due


def tallies(sc: Scenario) -> dict[str, int | None]:
    """Cumulative counters of the program, read at both ends of the traced
    region.  The fleet kernel's machine-span tallies are None where the
    simulator no longer exposes them."""
    fleet = getattr(sim_fleet, "fleet_stats", None)
    if not isinstance(fleet, dict):
        fleet = {}
    return {
        "issued": sc.traffic.issued if sc.traffic is not None else 0,
        "retries": sum(c.command_retries for c in sc.coordinators),
        "drops": sc.cluster.network.messages_dropped,
        "infeasible": sc.infeasible_passes,
        "advances": fleet.get("advances"),
        "fallbacks": fleet.get("fallbacks"),
    }


def layer_metrics(spans: SpanStack, sc: Scenario, cpu_s: float,
                  before: dict, after: dict,
                  speed: float) -> dict[str, float]:
    """The per-layer metrics of one traced region: spans opened after
    ``spans.reset()``, its traced CPU time, and :func:`tallies` at its
    two ends.  Times are scaled to the reference core by the run's
    ``speed`` (see :mod:`e2e_clock`)."""
    s = defaultdict(float, {k: v * speed for k, v in spans.self_s.items()})
    cpu_s *= speed
    n = spans.calls
    delta = {k: None if before[k] is None or after[k] is None
             else after[k] - before[k] for k in before}
    events = spans.events
    spans_n = n["fleet.columns"]
    delegates = n["machine.delegate"]
    if delta["advances"] is not None and delta["fallbacks"] is not None:
        advances, fallbacks = delta["advances"], delta["fallbacks"]
    else:
        fallbacks = delegates
        advances = spans_n * len(sc.cluster.machines) - delegates
    residency = advances / (advances + fallbacks) \
        if advances + fallbacks else 1.0
    candidates = spans.event_counts["traffic.arrival"]
    samples = spans.event_counts["agent.sample"] * \
        sc.cluster.total_procs // len(sc.cluster.nodes)
    passes = n["coord.dispatch"]
    pass_s = sum(s[k] for k in ("coord.dispatch", "coord.collect",
                                "coord.predict", "coord.schedule",
                                "coord.record"))
    return {
        "driver.events": events,
        "driver.self_s": s["driver"],
        "driver.us_per_event": _per(s["driver"], events, 1e6),
        "fleet.spans": spans_n,
        "fleet.columns_s": s["fleet.columns"],
        "fleet.us_per_span": _per(s["fleet.columns"], spans_n, 1e6),
        "fleet.residency": residency,
        "fleet.fallbacks": fallbacks,
        "machine.delegate_calls": delegates,
        "machine.delegate_s": s["machine.delegate"],
        "traffic.candidates": candidates,
        "traffic.arrival_s": s["traffic.arrival"],
        "traffic.admit_ratio": _per(delta["issued"], candidates),
        "traffic.harvest_s": s["traffic.harvest"],
        "agent.samples": samples,
        "agent.sample_s": s["agent.sample"],
        "agent.us_per_sample": _per(s["agent.sample"], samples, 1e6),
        "coord.passes": passes,
        "coord.collect_s": s["coord.collect"],
        "coord.predict_s": s["coord.predict"],
        "coord.schedule_s": s["coord.schedule"],
        "coord.record_s": s["coord.record"],
        "coord.dispatch_s": s["coord.dispatch"],
        "coord.ms_per_pass": _per(pass_s, passes, 1e3),
        "coord.infeasible_passes": delta["infeasible"],
        "net.deliveries": spans.event_counts["net.delivery"],
        "net.delivery_s": s["net.delivery"],
        "net.retries": delta["retries"],
        "net.drops": delta["drops"],
        "hier.rebalances": n["hier.rebalance"],
        "hier.rebalance_s": s["hier.rebalance"],
        "hier.summary_s": s["hier.summary"],
        "hier.lease_s": s["hier.lease"],
        "log.query_s": s["log.query"],
        "trace.cpu_s": cpu_s,
        "trace.unattributed_s": cpu_s - sum(s.values()),
    }


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0
