"""The hierarchical (rack -> datacenter) control plane.

The flat :class:`~repro.cluster.coordinator.ClusterCoordinator` runs one
Figure 3 pass over every processor of every node — fast after the columnar
work, but still a single synchronous bottleneck whose cost grows with the
fleet.  This module splits the tree in two tiers:

* a :class:`ShardCoordinator` per rack — a full coordinator (columnar
  pass, nested budgets, degraded mode) over its own few nodes, scheduling
  against a *delegated* power budget; and
* one :class:`FleetAllocator` on top, which never sees a processor: every
  rebalance period it gathers one compact :class:`ShardSummary` per shard
  (a power-demand ladder over the frequency rungs, O(rungs) floats) and
  re-splits the fleet budget with a FastCap-style fair water-fill in rung
  space, leasing the new budgets back down.

Fairness follows FastCap (PAPERS.md): rather than trimming shards
proportionally to demand, the allocator finds the uniform *rung level*
(fractional between ladder points) that makes the summed capped demands
meet the budget — every shard is throttled to the same depth of its own
ladder, so a shard with memory-bound (cheap-to-slow) work absorbs cuts
before one whose ladder rises steeply.

Budget safety across an unreliable fabric uses pessimistic *committed*
accounting: a grow lease raises the shard's committed power at send time
(an overcount if the lease drops — safe), while a shrink lease leaves the
committed value high until a fresh summary proves the shard applied it.
Grows are throttled by the pool ``B - sum(committed)``, so the fleet never
promises more than the budget even while leases and summaries are in
flight or lost.  Leases are stale-guarded by send time, so a delayed
duplicate of an old rebalance cannot override a newer decision.

A partitioned, lossy, or crashed shard degrades alone: its summary simply
fails to arrive, the allocator serves from a cached summary within
``staleness_bound_s`` and then declares the shard *lost* — freezing its
committed budget (it may still be drawing it) and excluding it from the
water-fill — while every healthy shard keeps scheduling.  The fleet pass
itself never blocks on a sick shard.

With one shard the allocator is pure pass-through: no summaries, no
leases, no rebalance tick, no extra randomness — byte-identical to the
flat coordinator (pinned by an equivalence test).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ClusterError
from ..sim.cluster import Cluster
from ..sim.driver import Simulation
from ..sim.rng import spawn_seeds
from ..telemetry import (
    EVENT_BUDGET_BREACH,
    EVENT_CURTAILMENT,
    EVENT_SHARD_REBALANCE,
    Telemetry,
    get_telemetry,
)
from ..units import check_positive
from .coordinator import ClusterCoordinator, CoordinatorConfig
from .faults import FaultSchedule
from .protocol import (
    BudgetLease,
    Liveness,
    ShardSummary,
    message_size_bytes,
    round_trip,
)

__all__ = [
    "FleetConfig",
    "ShardCoordinator",
    "FleetAllocator",
    "water_fill_budgets",
]


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of the fleet (datacenter) tier."""

    #: Nodes per shard (rack size); the last shard takes the remainder.
    shard_size: int = 4
    #: Budget rebalance period (None = 2 shard scheduling periods).  Must
    #: comfortably exceed the network round trip, so a lease is applied
    #: before the next summary reports the shard's budget.
    rebalance_period_s: float | None = None
    #: A summary whose round trip exceeds this is treated as missing for
    #: the rebalance (None = accept any delay).
    summary_timeout_s: float | None = None
    #: How long a cached summary may serve before the shard counts as
    #: lost (None = 3 rebalance periods).
    staleness_bound_s: float | None = None

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ClusterError("shard_size must be at least 1")
        if self.rebalance_period_s is not None:
            check_positive(self.rebalance_period_s, "rebalance_period_s")
        if self.summary_timeout_s is not None:
            check_positive(self.summary_timeout_s, "summary_timeout_s")
        if self.staleness_bound_s is not None:
            check_positive(self.staleness_bound_s, "staleness_bound_s")
        if (self.summary_timeout_s is not None
                and self.staleness_bound_s is not None
                and self.summary_timeout_s > self.staleness_bound_s):
            raise ClusterError(
                f"summary_timeout_s ({self.summary_timeout_s:g} s) exceeds "
                f"staleness_bound_s ({self.staleness_bound_s:g} s): every "
                f"summary slow enough to time out would already be stale"
            )

    def effective_rebalance_period_s(self, schedule_period_s: float) -> float:
        """The rebalance period with its shard-period default applied."""
        if self.rebalance_period_s is not None:
            return self.rebalance_period_s
        return 2.0 * schedule_period_s

    def effective_staleness_bound_s(self, schedule_period_s: float) -> float:
        """The staleness bound with its period-derived default applied."""
        if self.staleness_bound_s is not None:
            return self.staleness_bound_s
        return 3.0 * self.effective_rebalance_period_s(schedule_period_s)


def water_fill_budgets(ladders: np.ndarray, budget_w: float
                       ) -> tuple[np.ndarray, bool]:
    """FastCap-style fair split of ``budget_w`` across shard ladders.

    ``ladders`` is ``(shards, rungs)``, each row nondecreasing:
    ``ladders[i, k]`` is shard *i*'s total power with every processor
    capped at rung ``k`` (and at its epsilon-constrained rung where that
    is lower).  The fill finds the uniform fractional rung level at which
    the summed capped demands meet the budget and reads each shard's
    budget off its own ladder at that level — the same cap depth for
    everyone, so cuts land where they cost the least frequency.

    Returns ``(budgets, infeasible)``; ``infeasible`` means the budget is
    below the summed floors, in which case every shard gets its floor
    (the allocator's callers treat that like the scheduler's
    ``on_infeasible="floor"``).
    """
    ladders = np.asarray(ladders, dtype=float)
    if ladders.ndim != 2 or ladders.shape[1] < 1:
        raise ClusterError("ladders must be a (shards, rungs) matrix")
    totals = ladders.sum(axis=0)
    if budget_w >= totals[-1]:
        # Unconstrained: everyone gets demand, plus an even slack share
        # (headroom for the next window's drift).
        slack = (budget_w - totals[-1]) / ladders.shape[0]
        return ladders[:, -1] + slack, False
    if budget_w <= totals[0]:
        return ladders[:, 0].copy(), bool(budget_w < totals[0] - 1e-9)
    k = int(np.searchsorted(totals, budget_w, side="right")) - 1
    span = totals[k + 1] - totals[k]
    frac = 0.0 if span <= 0.0 else (budget_w - totals[k]) / span
    return ladders[:, k] + (ladders[:, k + 1] - ladders[:, k]) * frac, False


class ShardCoordinator(ClusterCoordinator):
    """One rack's coordinator, scheduling against a delegated budget.

    A full :class:`ClusterCoordinator` (columnar pass, nested budgets,
    degraded mode) over a sub-cluster that shares the fleet fabric; on
    top of it, the two fleet-tier verbs: summarise state *up*
    (:meth:`make_summary`) and apply a budget lease *down*
    (:meth:`apply_lease`).  The shard's uplink is its first node — a
    partition window covering that node id cuts the shard off the fleet
    tier without touching its intra-rack traffic.
    """

    def __init__(self, shard_id: int, cluster: Cluster,
                 config: CoordinatorConfig | None = None, **kwargs) -> None:
        super().__init__(cluster, config, **kwargs)
        self.shard_id = shard_id
        self.uplink_node_id = cluster.nodes[0].node_id
        self._last_lease_time_s = -math.inf
        self.leases_applied = 0
        self.leases_stale_dropped = 0

    # -- fleet-tier verbs --------------------------------------------------------

    def make_summary(self, now_s: float) -> ShardSummary:
        """The shard's compact state for the fleet allocator.

        The demand ladder comes from the *last* local schedule's
        epsilon-constrained rungs — the shard's own measurement-driven
        step 1 — so the allocator water-fills over real demand without
        ever seeing a processor.  Before the first pass the ladder is
        pessimistic (every processor at the top rung).
        """
        sched = self.scheduler
        table = sched.table
        powers = table.powers_array()
        rungs = np.arange(len(table))
        schedule = self.last_schedule
        if schedule is None or not schedule.assignments:
            procs = self.cluster.total_procs
            ladder = powers * procs
            mean_loss = 0.0
            procs_n = procs
        else:
            assignments = schedule.assignments
            procs_n = len(assignments)
            eps_idx = np.fromiter(
                (table.index_of(a.eps_freq_hz) for a in assignments),
                dtype=np.intp, count=procs_n)
            capped = np.minimum(eps_idx[:, None], rungs[None, :])
            if self.slo_floors_hz:
                # SLO floors flatten the ladder from below: rungs under a
                # processor's floor still cost the floor's power, so the
                # water-fill cannot be tempted by savings the schedule
                # will refuse to realise.
                floor_rungs = np.fromiter(
                    (table.index_of(table.quantize_up(
                        self.slo_floors_hz[a.node_id]))
                     if a.node_id in self.slo_floors_hz else 0
                     for a in assignments),
                    dtype=np.intp, count=procs_n)
                capped = np.maximum(floor_rungs[:, None], capped)
            rows = sched.power_ladders([a.node_id for a in assignments],
                                       [a.proc_id for a in assignments])
            ladder = np.take_along_axis(rows, capped, axis=1).sum(axis=0)
            mean_loss = float(np.mean([a.predicted_loss
                                       for a in assignments]))
        counts = self._liveness.counts()
        return ShardSummary(
            shard_id=self.shard_id,
            time_s=now_s,
            nodes=len(self.cluster.nodes),
            procs=procs_n,
            capped_demand_w=tuple(float(w) for w in ladder),
            mean_loss=mean_loss,
            budget_w=self.power_limit_w,
            healthy_nodes=counts["healthy"],
            stale_nodes=counts["stale"],
            lost_nodes=counts["lost"],
        )

    def apply_lease(self, lease: BudgetLease, now_s: float) -> None:
        """Adopt a delegated budget (idempotent, stale-guarded).

        A shrink triggers an immediate local pass — the shard must stop
        drawing the surrendered power before the allocator re-leases it —
        while a grow just takes effect at the next periodic pass.
        """
        if lease.time_s < self._last_lease_time_s:
            self.leases_stale_dropped += 1
            return
        self._last_lease_time_s = lease.time_s
        previous = self.power_limit_w
        self.power_limit_w = lease.budget_w
        self.leases_applied += 1
        shrink = lease.budget_w is not None and (
            previous is None or lease.budget_w < previous - 1e-9)
        if shrink:
            self.run_global_pass(now_s)


class FleetAllocator:
    """The datacenter tier: shard coordinators under one fleet budget.

    Slices the cluster into ``shard_size``-node racks, runs one
    :class:`ShardCoordinator` per rack, and periodically rebalances the
    fleet power budget across them (:meth:`run_rebalance`).  The top tier
    holds O(shards) state — summaries, health, committed watts — never
    per-processor views, so it scales past the flat coordinator.

    With a single shard the allocator is a transparent wrapper around one
    coordinator over the whole cluster: same seed tree, no fleet traffic,
    no rebalance tick — byte-identical to the flat path.
    """

    def __init__(self, cluster: Cluster,
                 config: CoordinatorConfig | None = None, *,
                 fleet: FleetConfig | None = None,
                 telemetry: Telemetry | None = None,
                 faults: FaultSchedule | None = None,
                 seed: int | None = None,
                 **shard_kwargs) -> None:
        self.cluster = cluster
        self.config = config or CoordinatorConfig()
        self.fleet = fleet or FleetConfig()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.power_limit_w = self.config.power_limit_w
        size = self.fleet.shard_size
        groups = [cluster.nodes[i:i + size]
                  for i in range(0, len(cluster.nodes), size)]
        self.shards: list[ShardCoordinator] = []
        if len(groups) == 1:
            # Pass-through: the whole cluster, the root seed, the exact
            # config — nothing hierarchical consumes randomness or fabric.
            self.shards.append(ShardCoordinator(
                0, cluster, self.config, telemetry=self.telemetry,
                faults=faults, seed=seed, **shard_kwargs))
        else:
            shard_seeds = spawn_seeds(seed, len(groups))
            total_procs = cluster.total_procs
            for i, nodes in enumerate(groups):
                share = None
                if self.power_limit_w is not None:
                    procs = sum(n.num_procs for n in nodes)
                    share = self.power_limit_w * procs / total_procs
                shard_config = replace(self.config, power_limit_w=share)
                self.shards.append(ShardCoordinator(
                    i, Cluster(list(nodes), network=cluster.network),
                    shard_config, telemetry=self.telemetry, faults=faults,
                    seed=shard_seeds[i], **shard_kwargs))
        #: Pessimistic committed watts per shard (see module docstring).
        self.committed_w: list[float] = [
            s.power_limit_w if s.power_limit_w is not None else math.inf
            for s in self.shards]
        self._sim: Simulation | None = None
        # Plain tallies (readable with telemetry disabled).
        self.rebalances = 0
        self.summaries_dropped = 0
        self.leases_sent = 0
        self.leases_dropped = 0
        #: Largest sum of committed watts any rebalance ever promised —
        #: the budget-safety witness (must never exceed the fleet limit).
        self.max_committed_w = 0.0
        self.last_rebalance_wall_s: float | None = None
        m = self.telemetry.metrics
        self._m_rebalances = m.counter(
            "shard_rebalance_passes_total", "Fleet budget rebalance passes")
        self._m_rebalance_seconds = m.histogram(
            "shard_rebalance_seconds",
            "Wall-clock latency of one fleet rebalance pass")
        self._m_summaries = m.counter(
            "shard_summaries_total",
            "Shard summaries received by the fleet allocator")
        self._m_summaries_dropped = m.counter(
            "shard_summaries_dropped_total",
            "Shard summaries lost to drops, partitions, or timeouts")
        self._m_leases_sent = m.counter(
            "shard_leases_sent_total", "Budget leases dispatched to shards")
        self._m_leases_dropped = m.counter(
            "shard_leases_dropped_total", "Budget leases lost in flight")
        self._m_committed = m.gauge(
            "shard_committed_watts",
            "Sum of budget watts currently committed to shards")
        #: Each shard's health and last fresh summary.
        self._liveness = Liveness((s.shard_id for s in self.shards),
                                  self.telemetry, member="shard",
                                  gauges="shard_health_")

    # -- introspection -----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def hierarchical(self) -> bool:
        """Whether the fleet tier is actually active (more than 1 shard)."""
        return len(self.shards) > 1

    @property
    def sim(self) -> Simulation:
        if self._sim is None:
            raise ClusterError("fleet allocator is not attached")
        return self._sim

    @property
    def rebalance_period_s(self) -> float:
        return self.fleet.effective_rebalance_period_s(
            self.config.schedule_period_s)

    @property
    def staleness_bound_s(self) -> float:
        return self.fleet.effective_staleness_bound_s(
            self.config.schedule_period_s)

    @property
    def shard_health(self) -> dict[int, str]:
        """Health per shard (healthy/stale/lost/recovered), in shard
        order: a read-only view of the states the rebalances set."""
        return self._liveness.states

    def node_health(self) -> dict[int, str]:
        """Fleet-wide node health, merged from every shard."""
        merged: dict[int, str] = {}
        for shard in self.shards:
            merged.update(shard.node_health)
        return merged

    def bind_serving(self, traffic) -> None:
        """Bind SLO-mode serving traffic on every shard.

        Shards own disjoint node sets and each filters the fleet-wide
        ``node_demands`` down to its own nodes, so one traffic source
        serves the whole tree.
        """
        for shard in self.shards:
            shard.bind_serving(traffic)

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, sim: Simulation) -> None:
        """Install every shard; arm the rebalance tick when hierarchical."""
        if self._sim is not None:
            raise ClusterError("fleet allocator already attached")
        self._sim = sim
        for shard in self.shards:
            shard.attach(sim)
        if self.hierarchical:
            sim.every(self.rebalance_period_s, self._on_rebalance_tick,
                      name="fleet-rebalance")

    def _on_rebalance_tick(self, now_s: float) -> None:
        self.run_rebalance(now_s)

    # -- the fleet pass ----------------------------------------------------------

    def run_rebalance(self, now_s: float) -> None:
        """Collect summaries, water-fill the budget, lease it back down.

        Never blocks on a sick shard: a missing summary downgrades that
        shard (stale, then lost) and the fill proceeds over the rest.
        """
        tel = self.telemetry
        wall0 = time.perf_counter()
        if tel.enabled:
            with tel.tracer.span("fleet.rebalance", sim_time_s=now_s,
                                 shards=len(self.shards)):
                self._rebalance_body(now_s)
        else:
            self._rebalance_body(now_s)
        self.last_rebalance_wall_s = time.perf_counter() - wall0
        self.rebalances += 1
        if tel.enabled:
            self._m_rebalances.inc()
            self._m_rebalance_seconds.observe(self.last_rebalance_wall_s)

    def _rebalance_body(self, now_s: float) -> None:
        tel = self.telemetry
        summaries = self._collect_summaries(now_s)
        usable: list[int] = []       # shard indices with a live ladder
        ladders: list[tuple[float, ...]] = []
        lost: list[int] = []
        for i, summary in enumerate(self._liveness.sweep(
                now_s, summaries, self.staleness_bound_s)):
            if summary is None:
                lost.append(i)
                continue
            if summary.shard_id in summaries:
                # Fresh this round: its applied budget is ground truth for
                # the committed accounting (an unconstrained shard can draw
                # up to its demand).
                self.committed_w[i] = (summary.budget_w
                                       if summary.budget_w is not None
                                       else summary.demand_w)
            usable.append(i)
            ladders.append(summary.capped_demand_w)

        budget = self.power_limit_w
        infeasible = False
        if budget is not None and usable:
            if len({len(ladder) for ladder in ladders}) != 1:
                raise ClusterError("shard demand ladders differ in length")
            # A lost shard may still be drawing its committed budget;
            # carve it out before filling the reachable shards.
            frozen = sum(self.committed_w[i] for i in lost)
            available = max(0.0, budget - frozen)
            targets, infeasible = water_fill_budgets(
                np.asarray(ladders), available)
            self._dispatch_leases(usable, targets, budget, now_s)
            if infeasible and tel.enabled:
                tel.emit(EVENT_BUDGET_BREACH, sim_time_s=now_s,
                         scope="fleet", limit_w=budget,
                         available_w=available,
                         floor_w=float(np.asarray(ladders)[:, 0].sum()))
        committed = sum(self.committed_w)
        if budget is not None:
            self.max_committed_w = max(self.max_committed_w, committed)
        if tel.enabled:
            if budget is not None and math.isfinite(committed):
                self._m_committed.set(committed)
            tel.emit(EVENT_SHARD_REBALANCE, sim_time_s=now_s,
                     budget_w=budget, shards=len(self.shards),
                     usable=len(usable), lost=len(lost),
                     infeasible=infeasible)

    def _collect_summaries(self, now_s: float) -> dict[int, ShardSummary]:
        """One summary :func:`round_trip` per shard over the (possibly
        faulty) fabric; a shard whose request or reply dies, or whose
        round trip exceeds ``summary_timeout_s``, is simply absent."""
        tel = self.telemetry
        network = self.cluster.network
        timeout = self.fleet.summary_timeout_s
        fresh: dict[int, ShardSummary] = {}
        for shard in self.shards:
            polled = round_trip(network, now_s, shard.uplink_node_id,
                                shard.make_summary, timeout)
            if polled is not None:
                fresh[shard.shard_id] = polled[0]
        dropped = len(self.shards) - len(fresh)
        self.summaries_dropped += dropped
        if tel.enabled:
            self._m_summaries.inc(len(fresh))
            if dropped:
                self._m_summaries_dropped.inc(dropped)
        return fresh

    def _dispatch_leases(self, usable: list[int], targets: np.ndarray,
                         budget: float, now_s: float) -> None:
        """Ship the water-filled budgets with pessimistic accounting.

        Shrinks go out as-is (committed stays high until the shard's next
        fresh summary proves it applied the cut); grows are throttled by
        the uncommitted pool and committed at send time, so the sum of
        commitments never exceeds the fleet budget.
        """
        growers: list[tuple[int, float]] = []   # (shard index, desired +W)
        for i, target in zip(usable, targets):
            target = float(target)
            committed = self.committed_w[i]
            if target < committed - 1e-9:
                self._send_lease(i, target, now_s)
            elif target > committed + 1e-9:
                growers.append((i, target - committed))
        if not growers:
            return
        finite = [w for w in self.committed_w if math.isfinite(w)]
        if len(finite) != len(self.committed_w):
            # Some shard's commitment is unknown (never summarised while
            # unconstrained): no safe pool to grow from yet.
            return
        pool = max(0.0, budget - sum(finite))
        total_desired = sum(d for _, d in growers)
        scale = min(1.0, pool / total_desired) if total_desired > 0 else 0.0
        for i, desired in growers:
            grant = desired * scale
            if grant <= 1e-9:
                continue
            self.committed_w[i] += grant
            self._send_lease(i, self.committed_w[i], now_s)

    def _send_lease(self, index: int, budget_w: float | None,
                    now_s: float) -> None:
        shard = self.shards[index]
        lease = BudgetLease(shard_id=shard.shard_id, time_s=now_s,
                            budget_w=budget_w)
        size = message_size_bytes(lease)
        delay = self.cluster.network.try_send(size, now_s=now_s,
                                              node_id=shard.uplink_node_id)
        self.leases_sent += 1
        if self.telemetry.enabled:
            self._m_leases_sent.inc()
        if delay is None:
            self.leases_dropped += 1
            if self.telemetry.enabled:
                self._m_leases_dropped.inc()
            return
        self.sim.at(now_s + delay,
                    lambda t, s=shard, lease=lease: s.apply_lease(lease, t),
                    name=f"apply-lease-s{shard.shard_id}")

    # -- triggers ----------------------------------------------------------------

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        """Change the fleet budget and rebalance immediately.

        Single-shard mode delegates straight to the coordinator (same
        behaviour as the flat path); hierarchical mode re-splits at once
        so curtailment response time includes only one rebalance round.
        """
        self.power_limit_w = limit_w
        if not self.hierarchical:
            self.shards[0].set_power_limit(limit_w, now_s)
            return
        if self.telemetry.enabled:
            self.telemetry.emit(EVENT_CURTAILMENT, sim_time_s=now_s,
                                scope="fleet", new_limit_w=limit_w)
        if limit_w is None:
            for i in range(len(self.shards)):
                self.committed_w[i] = math.inf
                self._send_lease(i, None, now_s)
            return
        self.run_rebalance(now_s)
