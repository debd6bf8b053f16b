"""Messages of the cluster scheduling protocol, and how members are polled.

Kept deliberately small: one report per node per scheduling period carrying
a per-processor counter summary, and one command per node carrying its
frequency vector.  Sizes are estimated so the network model can charge
realistic latency — the communication overhead the paper amortises with a
large ``T``.

The hierarchical control plane (:mod:`repro.cluster.hierarchy`) adds two
messages on the rack→datacenter tier: a :class:`ShardSummary` (one compact
fixed-size record per shard per rebalance round — columnar aggregates, no
per-processor payload, so the fleet tier's traffic is O(shards)) and a
:class:`BudgetLease` delegating a power budget back down to a shard.

Both tiers poll their members the same way: the coordinator polls nodes
for reports, the fleet allocator polls shards for summaries.  Each poll is
one :func:`round_trip`, and one :class:`Liveness` per tier ages the members
that miss a round (docs/RESILIENCE.md, "One health rule").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..errors import ClusterError
from ..sim.network import Network
from ..telemetry import Telemetry

__all__ = ["REPORT_FIELDS", "NodeReport", "FrequencyCommand",
           "ShardSummary", "BudgetLease", "message_size_bytes",
           "round_trip", "Liveness"]

#: Encoded size of one float field on the wire.
_FIELD_BYTES = 8
#: Fixed framing/header cost per message.
_HEADER_BYTES = 32
#: Wire size of a poll request / command acknowledgement frame.
_CONTROL_FRAME_BYTES = 64

#: The rows of :attr:`NodeReport.counters`: the window's summed counter
#: deltas in :class:`~repro.sim.counters.CounterBank` field order, then
#: the wall time the window covers.
REPORT_FIELDS = ("instructions", "cycles", "n_l2", "n_l3", "n_mem",
                 "l1_stall_cycles", "halted_cycles", "interval_s")


@dataclass(frozen=True, slots=True)
class NodeReport:
    """Counter summaries of one node's processors over the last window.

    Column ``j`` of :attr:`counters` (rows :data:`REPORT_FIELDS`) and
    ``idle_signaled[j]`` belong to processor ``proc_ids[j]``.
    """

    node_id: int
    time_s: float
    proc_ids: tuple[int, ...]
    #: ``(8, len(proc_ids))`` float array, rows :data:`REPORT_FIELDS`.
    counters: np.ndarray
    idle_signaled: tuple[bool, ...]

    def __post_init__(self) -> None:
        k = len(self.proc_ids)
        if len(set(self.proc_ids)) != k:
            raise ClusterError(f"node {self.node_id}: duplicate proc ids")
        if (np.shape(self.counters) != (len(REPORT_FIELDS), k)
                or len(self.idle_signaled) != k):
            raise ClusterError(
                f"node {self.node_id}: report columns do not match its "
                f"{k} proc ids")


@dataclass(frozen=True, slots=True)
class FrequencyCommand:
    """The coordinator's decision for one node."""

    node_id: int
    time_s: float
    #: Frequency per commanded processor (parallel to :attr:`proc_ids`).
    freqs_hz: tuple[float, ...]
    #: Voltage per commanded processor, same indexing.
    voltages: tuple[float, ...]
    #: Which processor each slot addresses.
    proc_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.freqs_hz) != len(self.voltages):
            raise ClusterError("frequency and voltage vectors differ in length")
        if len(self.proc_ids) != len(self.freqs_hz):
            raise ClusterError(
                "proc_ids and frequency vectors differ in length")
        if any(p < 0 for p in self.proc_ids):
            raise ClusterError("proc ids must be non-negative")
        if len(set(self.proc_ids)) != len(self.proc_ids):
            raise ClusterError(
                f"command for node {self.node_id}: duplicate proc ids")


@dataclass(frozen=True, slots=True)
class ShardSummary:
    """One shard's compact state for the fleet allocator.

    Fixed-size per shard: a handful of scalars plus one power-demand value
    per ladder rung (``capped_demand_w[k]`` = the shard's total scheduled
    power if every processor were capped at rung ``k`` while keeping its
    step-1 epsilon-constrained frequency where that is already lower).
    The fleet tier never sees per-processor state — the top of the tree
    scales as O(shards), not O(processors).
    """

    shard_id: int
    time_s: float
    nodes: int
    procs: int
    #: Power-demand ladder over the rung index (nondecreasing);
    #: ``capped_demand_w[0]`` is the shard floor, ``capped_demand_w[-1]``
    #: the shard's unconstrained step-1 demand.
    capped_demand_w: tuple[float, ...]
    #: Mean predicted performance loss of the shard's last local schedule.
    mean_loss: float
    #: Delegated budget the shard is currently scheduling against
    #: (ground truth for the allocator's committed-power accounting).
    budget_w: float | None
    healthy_nodes: int
    stale_nodes: int
    lost_nodes: int

    def __post_init__(self) -> None:
        if not self.capped_demand_w:
            raise ClusterError(
                f"shard {self.shard_id}: empty demand ladder")
        if any(b > a + 1e-9 for a, b in zip(self.capped_demand_w[1:],
                                            self.capped_demand_w[:-1])):
            raise ClusterError(
                f"shard {self.shard_id}: demand ladder must be "
                f"nondecreasing")

    @property
    def floor_w(self) -> float:
        """Shard power with every processor at the frequency floor."""
        return self.capped_demand_w[0]

    @property
    def demand_w(self) -> float:
        """Shard power at the unconstrained step-1 operating points."""
        return self.capped_demand_w[-1]


@dataclass(frozen=True, slots=True)
class BudgetLease:
    """The fleet allocator's delegated budget for one shard.

    Idempotent, and stale-guarded by ``time_s`` exactly like
    :class:`FrequencyCommand`: a delayed duplicate of an old rebalance
    decision must not override a newer one.
    """

    shard_id: int
    time_s: float
    budget_w: float | None

    def __post_init__(self) -> None:
        if self.budget_w is not None and self.budget_w < 0.0:
            raise ClusterError(
                f"shard {self.shard_id}: negative budget lease")


def message_size_bytes(
        message: NodeReport | FrequencyCommand | ShardSummary | BudgetLease
) -> int:
    """Wire-size estimate for the network model."""
    if isinstance(message, NodeReport):
        per_proc = 9 * _FIELD_BYTES + 1  # proc id, 8 numbers, idle flag
        return _HEADER_BYTES + per_proc * len(message.proc_ids)
    if isinstance(message, FrequencyCommand):
        # Proc ids pack into the per-slot field estimate (a u16 rides in
        # the slack of the 8-byte float fields), so carrying them does not
        # change the wire-size estimate — and therefore not the delays of
        # existing fault-free runs.
        return _HEADER_BYTES + 2 * _FIELD_BYTES * len(message.freqs_hz)
    if isinstance(message, ShardSummary):
        # 7 scalar fields plus one float per ladder rung.
        return _HEADER_BYTES + (7 + len(message.capped_demand_w)) * _FIELD_BYTES
    if isinstance(message, BudgetLease):
        return _HEADER_BYTES + 3 * _FIELD_BYTES
    raise ClusterError(f"unknown message type {type(message).__name__}")


def round_trip(network: Network, now_s: float, node_id: int,
               make: Callable[[float], object], timeout_s: float | None
               ) -> tuple[object, float] | None:
    """Poll one member: a request frame out to ``node_id``, the reply
    ``make(now_s)`` builds, and the reply back.

    Returns ``(reply, delay)``, or None when either leg is dropped or the
    round trip exceeds ``timeout_s`` (None accepts any delay).  The reply
    is built only once the request has arrived.
    """
    request = network.try_send(_CONTROL_FRAME_BYTES, now_s=now_s,
                               node_id=node_id)
    if request is None:
        return None
    reply = make(now_s)
    back = network.try_send(message_size_bytes(reply), now_s=now_s,
                            node_id=node_id)
    if back is None or (timeout_s is not None
                        and request + back > timeout_s):
        return None
    return reply, request + back


class Liveness:
    """The health of the members one tier polls, aged by one rule.

    :meth:`sweep` takes the payloads that arrived in a round.  A member
    whose payload arrived is ``healthy`` (``recovered`` on its first round
    back from ``lost``), and its payload is cached.  A member that missed
    the round serves its cached payload while that is at most ``bound_s``
    old (``stale``).  Past that, or with nothing cached, it is ``lost``,
    and it stays lost until a payload arrives.  With telemetry enabled,
    entering ``lost`` emits ``<member>_lost`` (with the ``previous``
    state), leaving it emits ``<member>_recovered``, and every sweep sets
    the ``<gauges>healthy``/``stale``/``lost`` gauges, counting
    ``recovered`` as healthy.
    """

    def __init__(self, ids: Iterable[int], telemetry: Telemetry, *,
                 member: str, gauges: str) -> None:
        self.telemetry = telemetry
        self.member = member
        #: Health per member id, in poll order.
        self.states: dict[int, str] = dict.fromkeys(ids, "healthy")
        #: Each member's last fresh payload: id -> (round time, payload).
        self._cache: dict[int, tuple[float, object]] = {}
        self._gauges = {
            state: telemetry.metrics.gauge(
                f"{gauges}{state}",
                f"{member.capitalize()}s currently in the {state!r} "
                f"health state")
            for state in ("healthy", "stale", "lost")
        }

    def counts(self) -> dict[str, int]:
        """Members per gauge state; ``recovered`` counts as healthy."""
        counts = {"healthy": 0, "stale": 0, "lost": 0}
        for state in self.states.values():
            counts["healthy" if state == "recovered" else state] += 1
        return counts

    def sweep(self, now_s: float, fresh: dict[int, object],
              bound_s: float) -> list:
        """Age every member by one round.  Returns each member's payload,
        in poll order: the fresh one, the cached one while ``stale``, or
        None once ``lost``."""
        tel = self.telemetry
        payloads = []
        for member_id, previous in self.states.items():
            if member_id in fresh:
                payload = fresh[member_id]
                self._cache[member_id] = (now_s, payload)
                state = "recovered" if previous == "lost" else "healthy"
            else:
                cached = self._cache.get(member_id)
                if (cached is not None and previous != "lost"
                        and now_s - cached[0] <= bound_s):
                    payload, state = cached[1], "stale"
                else:
                    payload, state = None, "lost"
            payloads.append(payload)
            if state == previous:
                continue
            self.states[member_id] = state
            if tel.enabled and state == "lost":
                tel.emit(f"{self.member}_lost", sim_time_s=now_s,
                         **{self.member: member_id}, previous=previous)
            elif tel.enabled and previous == "lost":
                tel.emit(f"{self.member}_recovered", sim_time_s=now_s,
                         **{self.member: member_id})
        if tel.enabled:
            counts = self.counts()
            for state, gauge in self._gauges.items():
                gauge.set(counts[state])
        return payloads
