"""The global cluster coordinator.

Runs the Figure 3 algorithm across every processor of every node under one
global power limit.  Every scheduling period ``T`` it collects a report
from each agent (paying network round trips), turns all fresh reports into
one :class:`~repro.core.scheduler.ViewBatch` through a single batched
predictor call, schedules, and ships per-node frequency commands whose
*application is delayed by the network* — so the measured response time
to a power-limit trigger includes the communication the paper says ``T``
amortises.

Every pass runs the same body, with or without a
:class:`~repro.cluster.faults.FaultSchedule`:

* report collection tolerates drops, partitions, crashed agents (scheduled
  or by :meth:`~repro.sim.node.ClusterNode.crash`), and (when
  ``report_timeout_s`` is set) late replies — a node that misses the pass
  keeps its counter windows for the next one;
* missing nodes are scheduled from their last fresh rows while within
  ``staleness_bound_s``; beyond it the node is *lost* and pinned
  pessimistically to the frequency floor, with its floor power carved out
  of the global budget — so total scheduled power honours the active
  limits no matter how many reports went missing (the paper's safety
  property, extended to a faulty control plane);
* per-node health (``healthy``/``stale``/``lost``/``recovered``) follows
  the rule both tiers share (:class:`~repro.cluster.protocol.Liveness`) and
  is surfaced through telemetry (``node_lost``/``node_recovered`` events,
  drop/stale-pass counters, health gauges).

Only the command protocol depends on the fault plan.  Without one,
commands are fire-and-forget, and a command that reaches a crashed agent
is dropped and counted.  With one, commands carry explicit processor ids,
are acknowledged by the agent, and are retransmitted (bounded by
``command_retries``) until acked; application is idempotent and stale
commands are discarded.  A pass in which every node reports is the classic
synchronous pass.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass

import numpy as np

from .. import constants
from ..core.logs import FvsstLog
from ..core.predictor import CounterPredictor, PredictorProtocol
from ..core.scheduler import (
    FrequencyVoltageScheduler,
    ProcessorAssignment,
    Schedule,
    ViewBatch,
)
from ..errors import ClusterError
from ..model.latency import MemoryLatencyProfile, POWER4_LATENCIES
from ..sim.cluster import Cluster
from ..sim.driver import Simulation
from ..sim.rng import spawn_seeds
from ..telemetry import (
    EVENT_BUDGET_BREACH,
    EVENT_CURTAILMENT,
    Telemetry,
    get_telemetry,
)
from ..units import check_non_negative, check_positive
from .agent import AgentSampler, NodeAgent
from .faults import FaultSchedule
from .protocol import (
    _CONTROL_FRAME_BYTES,
    FrequencyCommand,
    Liveness,
    NodeReport,
    message_size_bytes,
    round_trip,
)

_by_node_proc = operator.attrgetter("node_id", "proc_id")

__all__ = ["CoordinatorConfig", "ClusterCoordinator"]

#: The percentile ``CoordinatorConfig.slo_p99_target_s`` constrains.
_SLO_PERCENTILE = 99.0

#: The :class:`ViewBatch` columns, in constructor order.
_BATCH_COLUMNS = ("node_ids", "proc_ids", "has_signature", "core_cpi",
                  "mem_time_per_instr_s", "idle_signaled")


@dataclass(frozen=True)
class CoordinatorConfig:
    """Cluster scheduling parameters."""

    epsilon: float = constants.DEFAULT_EPSILON
    #: Local agent sampling period t.
    sample_period_s: float = constants.DEFAULT_DISPATCH_PERIOD_S
    #: Global scheduling period T.
    schedule_period_s: float = constants.DEFAULT_SCHEDULE_PERIOD_S
    #: Global processor power limit (None = unconstrained).
    power_limit_w: float | None = None
    counter_noise_sigma: float = 0.005
    idle_detection: bool = False
    #: A report whose round trip exceeds this is treated as missing for
    #: the pass (None = accept any delay).
    report_timeout_s: float | None = None
    #: How long a missing node's last fresh rows may serve before the
    #: node counts as lost (None = 3 scheduling periods).
    staleness_bound_s: float | None = None
    #: With a fault plan: retransmits of an unacknowledged command.
    command_retries: int = 2
    #: With a fault plan: how long to wait for a command ack before
    #: resending.
    retry_timeout_s: float = 0.005
    #: SLO mode: a p99 request-latency target, in seconds.
    #: Each pass translates the bound serving traffic's per-node demand
    #: into per-node frequency *floors* (via the M/M/1 latency model) and
    #: feeds them into the step-1/step-2 kernels: the power budget can
    #: never push a serving node below the frequency that keeps its tail
    #: latency under target.  Floors take precedence over the budget — a
    #: budget below the floor power comes back ``infeasible`` (and counts
    #: as a breach), mirroring ``on_infeasible="floor"``.  Requires
    #: :meth:`ClusterCoordinator.bind_serving`.  None disables SLO mode
    #: (the fault-free pass is then byte-identical to a coordinator
    #: without it).
    slo_p99_target_s: float | None = None

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        if self.epsilon >= 1.0:
            raise ClusterError(f"epsilon must be < 1, got {self.epsilon}")
        check_positive(self.sample_period_s, "sample_period_s")
        check_positive(self.schedule_period_s, "schedule_period_s")
        if self.schedule_period_s < self.sample_period_s:
            raise ClusterError("T must be at least t")
        if self.power_limit_w is not None:
            check_positive(self.power_limit_w, "power_limit_w")
        if self.report_timeout_s is not None:
            check_positive(self.report_timeout_s, "report_timeout_s")
        if self.staleness_bound_s is not None:
            check_positive(self.staleness_bound_s, "staleness_bound_s")
        if (self.report_timeout_s is not None
                and self.report_timeout_s > self.effective_staleness_bound_s):
            raise ClusterError(
                f"report_timeout_s ({self.report_timeout_s:g} s) exceeds "
                f"the staleness bound "
                f"({self.effective_staleness_bound_s:g} s): a report slow "
                f"enough to need the timeout would already be stale, so "
                f"every pass would silently schedule from cached views"
            )
        check_non_negative(self.counter_noise_sigma, "counter_noise_sigma")
        if type(self.command_retries) is not int or self.command_retries < 0:
            raise ClusterError(
                f"command_retries must be a non-negative int, got "
                f"{self.command_retries!r}")
        check_positive(self.retry_timeout_s, "retry_timeout_s")
        if self.slo_p99_target_s is not None:
            check_positive(self.slo_p99_target_s, "slo_p99_target_s")

    @property
    def effective_staleness_bound_s(self) -> float:
        """The staleness bound with its period-derived default applied."""
        if self.staleness_bound_s is not None:
            return self.staleness_bound_s
        return 3.0 * self.schedule_period_s


class ClusterCoordinator:
    """Global Figure 3 over a simulated cluster."""

    def __init__(self, cluster: Cluster,
                 config: CoordinatorConfig | None = None, *,
                 scheduler: FrequencyVoltageScheduler | None = None,
                 predictor: PredictorProtocol | None = None,
                 latencies: MemoryLatencyProfile = POWER4_LATENCIES,
                 telemetry: Telemetry | None = None,
                 faults: FaultSchedule | None = None,
                 seed: int | None = None) -> None:
        self.cluster = cluster
        self.config = config or CoordinatorConfig()
        table = cluster.nodes[0].machine.table
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.scheduler = scheduler or FrequencyVoltageScheduler(
            table, epsilon=self.config.epsilon, telemetry=self.telemetry
        )
        self.predictor = predictor or CounterPredictor(latencies)
        if not hasattr(self.predictor, "signatures_from_arrays"):
            raise ClusterError(
                f"predictor {type(self.predictor).__name__} has no "
                f"signatures_from_arrays: the coordinator evaluates every "
                f"pass's reports in one batch"
            )
        self.faults = faults
        if faults is not None:
            faults.install(cluster)
        seeds = spawn_seeds(seed, len(cluster.nodes))
        self.agents = [
            NodeAgent(node,
                      sample_period_s=self.config.sample_period_s,
                      counter_noise_sigma=self.config.counter_noise_sigma,
                      idle_detection=self.config.idle_detection,
                      telemetry=self.telemetry,
                      faults=faults,
                      seed=seeds[i])
            for i, node in enumerate(cluster.nodes)
        ]
        self._agents_by_id: dict[int, NodeAgent] = {}
        for agent in self.agents:
            node_id = agent.node.node_id
            if node_id in self._agents_by_id:
                raise ClusterError(f"duplicate node id {node_id}")
            self._agents_by_id[node_id] = agent
        self._sampler = AgentSampler(self.agents)
        self.power_limit_w = self.config.power_limit_w
        #: Optional per-node limits nested inside the global one (node
        #: supply degradation, per-rack breakers, ...).
        self.node_limits_w: dict[int, float] = {}
        self.log = FvsstLog()
        self.last_schedule: Schedule | None = None
        #: Wall-clock cost of the most recent global pass.
        self.last_pass_wall_s: float | None = None
        # Plain resilience tallies (kept even with telemetry disabled so
        # experiments and tests can read them cheaply).
        self.reports_dropped = 0
        self.commands_dropped = 0
        self.command_retries = 0
        self.stale_passes = 0
        self.floor_scheduled_procs = 0
        self.max_scheduled_power_w = 0.0
        #: SLO mode: the bound serving traffic (``node_demands`` provider).
        self._serving = None
        #: Per-node frequency floors of the last pass (SLO mode; empty
        #: otherwise) — ladder-quantised, so directly comparable against
        #: scheduled frequencies.
        self.slo_floors_hz: dict[int, float] = {}
        #: Scheduled frequencies ever observed below their node's floor
        #: (must stay 0 — the floors-respected witness tests assert on).
        self.slo_floor_violations = 0
        #: Passes whose floors alone made the power budget infeasible.
        self.slo_infeasible_passes = 0
        self._sim: Simulation | None = None
        m = self.telemetry.metrics
        self._m_passes = m.counter(
            "cluster_global_passes_total", "Coordinator global passes")
        self._m_pass_seconds = m.histogram(
            "cluster_pass_seconds",
            "Wall-clock latency of one global pass (collect + schedule + "
            "dispatch)")
        self._m_collect_delay = m.histogram(
            "cluster_collect_delay_seconds",
            "Sim-time report-collection round-trip delay per pass",
            buckets=(1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
                     1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 1e-1))
        self._m_report_bytes = m.counter(
            "cluster_report_bytes_total",
            "Bytes of node reports received by the coordinator")
        self._m_command_bytes = m.counter(
            "cluster_command_bytes_total",
            "Bytes of frequency commands sent by the coordinator")
        self._m_commands = m.counter(
            "cluster_commands_sent_total", "Frequency commands dispatched")
        self._m_command_delay = m.histogram(
            "cluster_command_delay_seconds",
            "Sim-time network delay of each dispatched command",
            buckets=(1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
                     1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 1e-1))
        self._m_breaches = m.counter(
            "cluster_budget_breaches_total",
            "Global passes whose step-1 demand exceeded a power limit")
        self._m_planned_power = m.gauge(
            "cluster_planned_power_watts",
            "Total scheduled cluster processor power of the last pass")
        self._m_reports_dropped = m.counter(
            "cluster_reports_dropped_total",
            "Node reports lost to drops, partitions, crashes, or timeouts")
        self._m_commands_dropped = m.counter(
            "cluster_commands_dropped_total",
            "Frequency commands lost in flight or delivered to a crashed "
            "agent")
        self._m_command_retries = m.counter(
            "cluster_command_retries_total",
            "Command retransmissions after a missing acknowledgement")
        self._m_stale_passes = m.counter(
            "cluster_stale_passes_total",
            "Global passes that scheduled at least one node from cached "
            "or floor views")
        #: Each node's health, and its last fresh rows as ``(batch, lo,
        #: hi)``, a reference to rows ``lo:hi`` of that pass's batch.
        self._liveness = Liveness(self._agents_by_id, self.telemetry,
                                  member="node", gauges="cluster_nodes_")
        self._m_slo_floor = m.gauge(
            "cluster_slo_floor_hz",
            "Highest per-node SLO frequency floor of the last pass")
        self._m_slo_violations = m.counter(
            "cluster_slo_floor_violations_total",
            "Scheduled frequencies below their node's SLO floor (must "
            "stay 0)")

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, sim: Simulation) -> None:
        """Install the agents' sampler and the periodic global pass."""
        if self._sim is not None:
            raise ClusterError("coordinator already attached")
        self._sim = sim
        self._sampler.attach(sim)
        sim.every(self.config.schedule_period_s, self._on_schedule_tick,
                  name="coordinator-schedule")

    @property
    def sim(self) -> Simulation:
        if self._sim is None:
            raise ClusterError("coordinator is not attached")
        return self._sim

    @property
    def node_health(self) -> dict[int, str]:
        """Health per node (healthy/stale/lost/recovered), in agent order:
        a read-only view of the states the coordinator's passes set."""
        return self._liveness.states

    # -- SLO mode ------------------------------------------------------------------

    def bind_serving(self, traffic) -> None:
        """Bind the serving traffic whose demand drives the SLO floors.

        ``traffic`` is anything with ``node_demands(now_s) ->
        {node_id: NodeDemand}`` — normally a
        :class:`~repro.workloads.serving.FleetTrafficSource`.  Required
        before the first pass when ``slo_p99_target_s`` is set.
        """
        self._serving = traffic

    def _slo_floors(self, now_s: float) -> dict[int, float]:
        """Per-node frequency floors for this pass (empty outside SLO
        mode).  Floors are ladder-quantised (up) so they are directly the
        minimum frequencies the schedule may carry."""
        target = self.config.slo_p99_target_s
        if target is None:
            return {}
        if self._serving is None:
            raise ClusterError(
                "slo_p99_target_s is set but no serving traffic is bound; "
                "call bind_serving() first"
            )
        from ..model.latency_model import frequency_floor_hz
        table = self.scheduler.table
        floors: dict[int, float] = {}
        for node_id, demand in self._serving.node_demands(now_s).items():
            if node_id not in self._agents_by_id:
                continue   # traffic on nodes this coordinator doesn't own
            floors[node_id] = frequency_floor_hz(
                table, demand.signature, demand.instructions,
                demand.rate_per_core_per_s, target,
                percentile=_SLO_PERCENTILE)
        self.slo_floors_hz = floors
        if self.telemetry.enabled:
            self._m_slo_floor.set(max(floors.values()) if floors else 0.0)
        return floors

    def _check_slo_floors(self, schedule: Schedule) -> None:
        """Count scheduled frequencies below their node's floor (the
        floors-respected witness; stays 0 unless the kernels regress)."""
        floors = self.slo_floors_hz
        if not floors:
            return
        violations = 0
        for a in schedule.assignments:
            floor = floors.get(a.node_id)
            if floor is not None and a.freq_hz < floor - 1e-6:
                violations += 1
        if violations:
            self.slo_floor_violations += violations
            if self.telemetry.enabled:
                self._m_slo_violations.inc(violations)

    # -- the global pass ---------------------------------------------------------------

    def _on_schedule_tick(self, now_s: float) -> None:
        self.run_global_pass(now_s)

    def run_global_pass(self, now_s: float) -> Schedule:
        """Collect, schedule, and dispatch commands (network-delayed)."""
        tel = self.telemetry
        wall0 = time.perf_counter()
        if tel.enabled:
            with tel.tracer.span("cluster.global_pass", sim_time_s=now_s,
                                 nodes=len(self.agents)) as span:
                schedule, collect_delay = self._global_pass_body(now_s)
                span.sim_duration_s = collect_delay
                span.set_attr("total_power_w", schedule.total_power_w)
                span.set_attr("infeasible", schedule.infeasible)
        else:
            schedule, collect_delay = self._global_pass_body(now_s)
        self.last_pass_wall_s = time.perf_counter() - wall0
        self._check_slo_floors(schedule)
        if schedule.infeasible and self.slo_floors_hz:
            # The budget cannot cover the SLO floors: the floors won (the
            # schedule carries them) and the breach event below records
            # the overrun for the operator.
            self.slo_infeasible_passes += 1
        self._record(schedule, now_s, pass_wall_s=self.last_pass_wall_s)
        self.last_schedule = schedule
        self.max_scheduled_power_w = max(self.max_scheduled_power_w,
                                         schedule.total_power_w)
        if tel.enabled:
            self._m_passes.inc()
            self._m_pass_seconds.observe(self.last_pass_wall_s)
            self._m_planned_power.set(schedule.total_power_w)
            if schedule.reduction_steps or schedule.infeasible:
                self._m_breaches.inc()
                tel.emit(EVENT_BUDGET_BREACH, sim_time_s=now_s,
                         limit_w=self.power_limit_w,
                         node_limits=dict(self.node_limits_w),
                         planned_power_w=schedule.total_power_w,
                         reduction_steps=schedule.reduction_steps,
                         infeasible=schedule.infeasible)
        return schedule

    def _global_pass_body(self, now_s: float) -> tuple[Schedule, float]:
        fresh, collect_delay = self._collect_reports(now_s)
        batch, lost_nodes = self._assemble_batch(fresh, now_s)
        floors = self._slo_floors(now_s)
        schedule = self._schedule(batch, lost_nodes, floors)
        self._dispatch(schedule, now_s + collect_delay)
        return schedule, collect_delay

    def _collect_reports(self, now_s: float
                         ) -> tuple[dict[int, NodeReport], float]:
        """Poll every agent: the reports that arrived (by node id, in agent
        order) and the worst round trip among them.

        Request out, report back: one :func:`round_trip` per node, the
        collections overlapping across nodes (asynchronous gather).  A
        crashed agent, a dropped leg, or a round trip over
        ``report_timeout_s`` makes the node miss the pass; its agent keeps
        the unconfirmed counter windows for the next one.
        """
        tel = self.telemetry
        network = self.cluster.network
        timeout = self.config.report_timeout_s
        fresh: dict[int, NodeReport] = {}
        worst_delay = 0.0
        for agent in self.agents:
            node_id = agent.node.node_id
            polled = None if agent.crashed(now_s) else round_trip(
                network, now_s, node_id, agent.make_report, timeout)
            if polled is None:
                continue
            agent.confirm_report()
            fresh[node_id], delay = polled
            worst_delay = max(worst_delay, delay)
        dropped = len(self.agents) - len(fresh)
        self.reports_dropped += dropped
        if tel.enabled:
            self._m_report_bytes.inc(sum(map(message_size_bytes,
                                             fresh.values())))
            self._m_collect_delay.observe(worst_delay)
            if dropped:
                self._m_reports_dropped.inc(dropped)
        return fresh, worst_delay

    def _view_batch_from_reports(self, reports: list[NodeReport]
                                 ) -> ViewBatch:
        """The reports' rows, node by node in proc order: one
        concatenation, one batched predictor evaluation, no per-processor
        objects."""
        sizes = [len(r.proc_ids) for r in reports]
        n = sum(sizes)
        proc_ids = np.fromiter(
            itertools.chain.from_iterable(r.proc_ids for r in reports),
            dtype=np.int64, count=n)
        idle = np.fromiter(
            itertools.chain.from_iterable(r.idle_signaled for r in reports),
            dtype=bool, count=n)
        counters = np.concatenate([r.counters for r in reports], axis=1)
        report_of_row = np.repeat(np.arange(len(reports)), sizes)
        node_ids = np.repeat([r.node_id for r in reports], sizes)
        # Agents report in proc order; only a hand-built report may not.
        if np.any((np.diff(proc_ids) < 0) & (np.diff(report_of_row) == 0)):
            order = np.lexsort((proc_ids, report_of_row))
            proc_ids, idle = proc_ids[order], idle[order]
            counters = counters[:, order]
        interval = counters[7]
        # Rows 0-5: instructions, cycles, n_l2, n_l3, n_mem, l1 stalls.
        has_sig, core_cpi, mem_time = self.predictor.signatures_from_arrays(
            *counters[:6], interval)
        # An empty window (the t = 0 tick, or a T == t ordering tie) has no
        # usable signature, whatever the predictor makes of it
        # (AlphaPredictor ignores interval_s).
        empty = interval <= 0.0
        if empty.any():
            has_sig = has_sig & ~empty
            core_cpi = np.where(empty, 1.0, core_cpi)
            mem_time = np.where(empty, 0.0, mem_time)
        return ViewBatch(node_ids, proc_ids, has_sig, core_cpi, mem_time,
                         idle)

    def _assemble_batch(self, fresh: dict[int, NodeReport], now_s: float
                        ) -> tuple[ViewBatch | None, list[int]]:
        """The pass's rows in agent order (None when no node has any),
        and the lost nodes.

        Each fresh node's rows are a reference into this pass's batch.  A
        missing node re-enters from its cached rows while they are within
        the staleness bound (health ``stale``); beyond it the node is
        ``lost``.
        """
        batch = None
        rows: dict[int, tuple[ViewBatch, int, int]] = {}
        if fresh:
            batch = self._view_batch_from_reports(list(fresh.values()))
            lo = 0
            for node_id, report in fresh.items():
                hi = lo + len(report.proc_ids)
                rows[node_id] = (batch, lo, hi)
                lo = hi
        segments = self._liveness.sweep(
            now_s, rows, self.config.effective_staleness_bound_s)
        lost_nodes = [node_id for node_id, segment
                      in zip(self.node_health, segments) if segment is None]
        stale = len(fresh) + len(lost_nodes) < len(segments)
        if stale or lost_nodes:
            self.stale_passes += 1
            if self.telemetry.enabled:
                self._m_stale_passes.inc()
        if stale:
            batch = ViewBatch(*(
                np.concatenate([getattr(b, column)[lo:hi]
                                for b, lo, hi in filter(None, segments)])
                for column in _BATCH_COLUMNS))
        return batch, lost_nodes

    def _schedule(self, batch: ViewBatch | None, lost_nodes: list[int],
                  floors: dict[int, float]) -> Schedule:
        """Figure 3 over the live rows, with lost nodes pinned to the floor.

        Without lost nodes this is one plain pass.  Lost nodes are
        commanded to ``f_min`` — lifted to their SLO floor when one is
        set, since a lost node is still serving traffic we can't see —
        and their pinned power is carved out of the global budget before
        the live nodes are scheduled, so the combined scheduled power
        honours the limit whenever it is honourable at all.
        """
        sched = self.scheduler
        f_min = sched.table.f_min_hz
        limit = self.power_limit_w
        node_limits = self.node_limits_w
        ceiling = None
        floor_assignments: list[ProcessorAssignment] = []
        floor_power = 0.0
        infeasible = False
        for node_id in lost_nodes:
            node_floor = 0.0
            slo_floor = floors.get(node_id)
            pin = f_min if slo_floor is None else max(
                f_min, sched.table.quantize_up(slo_floor))
            for proc_id in range(self.cluster.node(node_id).num_procs):
                power = sched.power_for(node_id, proc_id, pin)
                floor_assignments.append(ProcessorAssignment(
                    node_id=node_id, proc_id=proc_id, freq_hz=pin,
                    voltage=sched.voltages.min_voltage(node_id, proc_id,
                                                       pin),
                    power_w=power,
                    predicted_loss=sched.predicted_loss(None, pin),
                    eps_freq_hz=pin,
                ))
                node_floor += power
            floor_power += node_floor
            node_limit = node_limits.get(node_id)
            if node_limit is not None and node_floor > node_limit + 1e-9:
                infeasible = True
        if lost_nodes:
            self.floor_scheduled_procs += len(floor_assignments)
            if batch is None:
                # Every node is lost: the whole cluster sits at the floor.
                if limit is not None and floor_power > limit + 1e-9:
                    infeasible = True
                return Schedule(
                    assignments=tuple(sorted(floor_assignments,
                                             key=_by_node_proc)),
                    total_power_w=floor_power,
                    power_limit_w=limit,
                    epsilon=sched.epsilon,
                    infeasible=infeasible,
                )
            lost = set(lost_nodes)
            floors = {n: f for n, f in floors.items() if n not in lost}
            node_limits = {n: w for n, w in node_limits.items()
                           if n not in lost}
            if limit is not None:
                limit -= floor_power
                if limit <= 0.0:
                    # The lost nodes' floor power alone saturates the
                    # budget: the best DVFS can do is pin the live nodes
                    # to the floor too — except where an SLO floor
                    # overrides even that (the floor maximum is applied
                    # after the cap, so floors win).
                    limit, node_limits, ceiling = None, {}, f_min
                    infeasible = True
        live = sched.schedule(batch, limit, node_limits_w=node_limits or None,
                              max_freq_hz=ceiling,
                              min_freqs_hz=floors or None,
                              on_infeasible="floor")
        if not lost_nodes:
            return live
        return Schedule(
            assignments=tuple(sorted(
                live.assignments + tuple(floor_assignments),
                key=_by_node_proc)),
            total_power_w=live.total_power_w + floor_power,
            power_limit_w=self.power_limit_w,
            epsilon=sched.epsilon,
            infeasible=infeasible or live.infeasible,
            reduction_steps=live.reduction_steps,
        )

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, schedule: Schedule, decision_time_s: float) -> None:
        # One pass: Schedule.assignments is (node, proc)-sorted by
        # construction, so per-node groups come out proc-sorted for free.
        # A cheap monotonicity check guards against a hand-built schedule
        # with interleaved nodes or out-of-order procs.
        by_node: dict[int, list] = {}
        needs_sort = False
        for a in schedule.assignments:
            group = by_node.get(a.node_id)
            if group is None:
                by_node[a.node_id] = [a]
            else:
                if group[-1].proc_id > a.proc_id:
                    needs_sort = True
                group.append(a)
        for node_id, assignments in by_node.items():
            if needs_sort:
                assignments.sort(key=lambda a: a.proc_id)
            command = FrequencyCommand(
                node_id=node_id,
                time_s=decision_time_s,
                freqs_hz=tuple(a.freq_hz for a in assignments),
                voltages=tuple(a.voltage for a in assignments),
                proc_ids=tuple(a.proc_id for a in assignments),
            )
            if self.faults is None:
                # Fire and forget: acks would add events, and so span
                # boundaries, to every fault-free run.
                size = message_size_bytes(command)
                delay = self.cluster.network.send(size)
                if self.telemetry.enabled:
                    self._m_commands.inc()
                    self._m_command_bytes.inc(size)
                    self._m_command_delay.observe(delay)
                agent = self._agent_for(node_id)
                apply_at = decision_time_s + delay
                self.sim.at(apply_at,
                            lambda t, a=agent, c=command: self._apply(a, c, t),
                            name=f"apply-cmd-n{node_id}")
            else:
                self._send_command(command, decision_time_s, attempt=0,
                                   state={"acked": False})

    def _send_command(self, command: FrequencyCommand, now_s: float,
                      attempt: int, state: dict) -> None:
        """One (re)transmission of a command over the faulty network."""
        node_id = command.node_id
        tel = self.telemetry
        size = message_size_bytes(command)
        delay = self.cluster.network.try_send(size, now_s=now_s,
                                              node_id=node_id)
        if attempt:
            self.command_retries += 1
        if tel.enabled:
            self._m_commands.inc()
            self._m_command_bytes.inc(size)
            if attempt:
                self._m_command_retries.inc()
        if delay is None:
            self.commands_dropped += 1
            if tel.enabled:
                self._m_commands_dropped.inc()
        else:
            if tel.enabled:
                self._m_command_delay.observe(delay)
            self.sim.at(
                now_s + delay,
                lambda t, c=command, s=state: self._deliver_command(c, t, s),
                name=f"apply-cmd-n{node_id}")
        if attempt < self.config.command_retries:
            self.sim.at(
                now_s + self.config.retry_timeout_s,
                lambda t, c=command, s=state, a=attempt:
                    self._maybe_retry(c, t, a, s),
                name=f"retry-cmd-n{node_id}")

    def _maybe_retry(self, command: FrequencyCommand, now_s: float,
                     prev_attempt: int, state: dict) -> None:
        if state["acked"]:
            return
        self._send_command(command, now_s, prev_attempt + 1, state)

    def _apply(self, agent: NodeAgent, command: FrequencyCommand,
               now_s: float) -> bool:
        """Apply a delivered command; one that reaches a crashed agent is
        dropped and counted.  Returns whether it was applied."""
        if agent.crashed(now_s):
            self.commands_dropped += 1
            if self.telemetry.enabled:
                self._m_commands_dropped.inc()
            return False
        agent.apply_command(command, now_s)
        return True

    def _deliver_command(self, command: FrequencyCommand, now_s: float,
                         state: dict) -> None:
        """A command arrived at its node: apply and acknowledge."""
        if not self._apply(self._agent_for(command.node_id), command, now_s):
            return
        ack_delay = self.cluster.network.try_send(
            _CONTROL_FRAME_BYTES, now_s=now_s, node_id=command.node_id)
        if ack_delay is not None:
            def _ack(_t: float, s=state) -> None:
                s["acked"] = True
            self.sim.at(now_s + ack_delay, _ack,
                        name=f"ack-cmd-n{command.node_id}")

    def _agent_for(self, node_id: int) -> NodeAgent:
        try:
            return self._agents_by_id[node_id]
        except KeyError:
            raise ClusterError(f"no agent for node {node_id}") from None

    def _record(self, schedule: Schedule, now_s: float, *,
                pass_wall_s: float | None = None) -> None:
        # Assignments are NamedTuples: one zip transposes every field.
        (node_ids, proc_ids, freqs_hz, voltages, powers_w,
         predicted_losses, eps_freqs_hz) = zip(*schedule.assignments)
        self.log.record_schedule_pass(
            now_s, node_ids, proc_ids, freqs_hz, eps_freqs_hz,
            voltages, powers_w, predicted_losses,
            power_limit_w=self.power_limit_w,
            infeasible=schedule.infeasible,
            pass_wall_s=pass_wall_s,
        )

    # -- triggers -------------------------------------------------------------------------

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        """Change the global limit and run an immediate global pass."""
        self.power_limit_w = limit_w
        if self.telemetry.enabled:
            self.telemetry.emit(EVENT_CURTAILMENT, sim_time_s=now_s,
                                new_limit_w=limit_w)
        self.run_global_pass(now_s)

    def set_node_limit(self, node_id: int, limit_w: float | None,
                       now_s: float) -> None:
        """Install (or lift, with ``None``) a per-node limit and run an
        immediate pass — the node-level PSU failure trigger."""
        if limit_w is None:
            self.node_limits_w.pop(node_id, None)
        else:
            self.node_limits_w[node_id] = limit_w
        self.run_global_pass(now_s)
