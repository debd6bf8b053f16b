"""Fleet-scale open-loop serving traffic and mergeable latency histograms.

The single-core :class:`~repro.workloads.server.ServerSource` answers "what
does one processor's queue look like"; serving millions of users needs the
fleet view.  This module scales the arrival layer up without scaling the
accounting up with it:

* :class:`FleetTrafficSource` drives one ``ServerSource`` per (node, core)
  of a whole cluster from a *shared* arrival process — constant, diurnal,
  :func:`flash_crowd_rate` ramps, or a replayed
  :class:`~repro.workloads.traces.RateTrace` — split evenly across the
  streams, each stream thinning independently with its own spawned RNG
  stream (deterministic under a root seed).  Random draws come from
  :class:`BlockedDraws` buffers: one vectorised ``Generator`` call refills
  256 draws at a time, so the per-arrival Python cost is an index bump
  rather than a Generator dispatch.
* Each stream folds its completed requests' latencies into its own
  telemetry :class:`~repro.telemetry.metrics.Histogram` over
  :data:`REQUEST_LATENCY_BUCKETS_S`.  Histograms merge bucket-wise, so p99
  is computable per node, per shard and fleet-wide without ever storing a
  per-request record.  Percentiles interpolate within the bucket
  (Prometheus ``histogram_quantile`` semantics), with the overflow bucket
  clamped to the maximum observed value.

Censoring: an open-loop overload grows queues without bound, and completed
requests under-represent the tail.  :meth:`FleetTrafficSource.fleet_digest`
reports completions only; ``censored=True`` folds in each in-flight
request's latency lower bound ``horizon - arrival`` (records of in-flight
requests are always retained, even in drop-records mode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

import numpy as np

from ..errors import WorkloadError
from ..model.latency import MemoryLatencyProfile, POWER4_LATENCIES
from ..sim.rng import spawn_seeds
from ..telemetry.metrics import Histogram
from ..units import check_non_negative, check_positive
from .server import RequestSpec, ServerSource

if TYPE_CHECKING:
    from ..model.ipc import WorkloadSignature
    from ..sim.cluster import Cluster
    from ..sim.driver import Simulation

__all__ = [
    "REQUEST_LATENCY_BUCKETS_S",
    "flash_crowd_rate",
    "BlockedDraws",
    "NodeDemand",
    "FleetTrafficSource",
]

#: Request-latency le-buckets: 0.5 ms to 30 s, roughly log-spaced — wide
#: enough that an overloaded queue's tail still lands in finite buckets.
#: (The telemetry DEFAULT_LATENCY_BUCKETS_S top out at 1 s of *callback*
#: latency; request latencies need the seconds range.)
REQUEST_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def flash_crowd_rate(base_per_s: float, peak_per_s: float, *,
                     t_start_s: float, ramp_s: float, hold_s: float,
                     decay_s: float) -> Callable[[float], float]:
    """A flash-crowd arrival curve: base load, a linear ramp to the peak
    at ``t_start_s``, a hold, and a linear decay back to base."""
    check_non_negative(base_per_s, "base_per_s")
    check_non_negative(t_start_s, "t_start_s")
    check_positive(ramp_s, "ramp_s")
    check_non_negative(hold_s, "hold_s")
    check_positive(decay_s, "decay_s")
    if peak_per_s < base_per_s:
        raise WorkloadError("peak rate below base rate")

    t_peak = t_start_s + ramp_s
    t_fall = t_peak + hold_s
    t_end = t_fall + decay_s

    def rate(t: float) -> float:
        if t <= t_start_s or t >= t_end:
            return base_per_s
        if t < t_peak:
            return base_per_s + (peak_per_s - base_per_s) \
                * (t - t_start_s) / ramp_s
        if t <= t_fall:
            return peak_per_s
        return peak_per_s - (peak_per_s - base_per_s) * (t - t_fall) / decay_s

    return rate


class BlockedDraws:
    """Buffered random draws for one arrival stream.

    A ``ServerSource`` consumes randomness one scalar at a time
    (exponential gap, uniform thin).  At fleet scale that is millions of
    ``Generator`` method dispatches; this adapter makes one vectorised
    draw per 256 and serves scalars off the buffer.  It quacks exactly
    like the subset of ``Generator`` the source uses.
    """

    __slots__ = ("_rng", "_block", "_exp", "_exp_i", "_uni", "_uni_i")

    def __init__(self, rng: np.random.Generator | int | None, *,
                 block: int = 256) -> None:
        check_positive(block, "block")
        self._rng = (rng if isinstance(rng, np.random.Generator)
                     else np.random.default_rng(rng))
        self._block = block
        self._exp = np.empty(0)
        self._exp_i = 0
        self._uni = np.empty(0)
        self._uni_i = 0

    def exponential(self, scale: float) -> float:
        if self._exp_i >= self._exp.size:
            self._exp = self._rng.exponential(1.0, self._block)
            self._exp_i = 0
        value = self._exp[self._exp_i]
        self._exp_i += 1
        return float(value) * scale

    def uniform(self) -> float:
        if self._uni_i >= self._uni.size:
            self._uni = self._rng.uniform(size=self._block)
            self._uni_i = 0
        value = self._uni[self._uni_i]
        self._uni_i += 1
        return float(value)


class NodeDemand(NamedTuple):
    """One node's serving demand at an instant — what the SLO-aware
    coordinator feeds the latency model."""

    #: Arrival rate per core (each core serves its own stream/queue).
    rate_per_core_per_s: float
    #: Ground-truth signature of the request computation.
    signature: "WorkloadSignature"
    #: Instructions per request.
    instructions: float


class FleetTrafficSource:
    """Open-loop request traffic across every core of a cluster.

    The fleet rate function is split evenly over the streams (one per
    (node, core)); superposed, the streams reproduce the fleet Poisson
    process exactly.  Each stream gets an independent spawned RNG and its
    own per-core latency :class:`~repro.telemetry.metrics.Histogram`;
    :meth:`node_digest` and :meth:`fleet_digest` merge upward on demand.

    By default per-request records are dropped once harvested into the
    histograms (``keep_records=False``), so memory is O(in-flight), not
    O(requests served) — the property that lets a simulated fleet serve
    millions of requests.  Pass ``keep_records=True`` to retain exact
    per-request latencies (tests, calibration).

    ``spec`` is either one fleet-wide :class:`RequestSpec` or a mapping
    from ``node_id`` to the spec that node serves — a heterogeneous mix
    (e.g. a lean front-end tier next to a memory-bound backend tier).
    The mapping must cover every served node; :meth:`node_demands`
    reports each node's own signature and instruction count either way.
    """

    def __init__(self, cluster: "Cluster", *,
                 rate_per_s: Callable[[float], float],
                 max_rate_per_s: float,
                 spec: RequestSpec | Mapping[int, RequestSpec]
                     | None = None,
                 cores_per_node: int | None = None,
                 horizon_s: float | None = None,
                 keep_records: bool = False,
                 latencies: MemoryLatencyProfile = POWER4_LATENCIES,
                 seed: int | None = None) -> None:
        check_positive(max_rate_per_s, "max_rate_per_s")
        self.cluster = cluster
        self.rate = rate_per_s
        self.max_rate = max_rate_per_s
        self.latencies = latencies
        if spec is None or isinstance(spec, RequestSpec):
            #: The fleet-wide request shape; ``None`` under a per-node map.
            self.spec: RequestSpec | None = spec or RequestSpec()
            spec_by_node = None
        else:
            self.spec = None
            spec_by_node = {int(nid): s for nid, s in dict(spec).items()}
            for nid, node_spec in spec_by_node.items():
                if not isinstance(node_spec, RequestSpec):
                    raise WorkloadError(
                        f"per-node request spec for node {nid} must be a "
                        f"RequestSpec, got {type(node_spec).__name__}")
        streams: list[tuple[int, int]] = []   # (node index, core index)
        for i, node in enumerate(cluster.nodes):
            cores = node.num_procs if cores_per_node is None \
                else min(cores_per_node, node.num_procs)
            streams.extend((i, c) for c in range(cores))
        if not streams:
            raise WorkloadError("no cores to serve traffic on")
        # Resolve every served node's request shape up front — signatures
        # are computed once per node, and a mapping that misses a served
        # node fails loudly here rather than at first arrival.
        self._node_spec: dict[int, RequestSpec] = {}
        self._node_signature: dict[int, "WorkloadSignature"] = {}
        for i, _ in streams:
            node_id = cluster.nodes[i].node_id
            if node_id in self._node_spec:
                continue
            if spec_by_node is None:
                node_spec = self.spec
            else:
                try:
                    node_spec = spec_by_node[node_id]
                except KeyError:
                    raise WorkloadError(
                        f"per-node request specs given, but served node "
                        f"{node_id} has none") from None
            self._node_spec[node_id] = node_spec
            self._node_signature[node_id] = node_spec.signature(latencies)
        self.num_streams = len(streams)
        seeds = spawn_seeds(seed, self.num_streams)
        share = 1.0 / self.num_streams
        rate_fn = self.rate

        def stream_rate(t: float, _share: float = share) -> float:
            return rate_fn(t) * _share

        self.sources: list[ServerSource] = []
        self._by_node: dict[int, list[ServerSource]] = {}
        for k, (i, core) in enumerate(streams):
            node = cluster.nodes[i]
            source = ServerSource(
                node.machine, core,
                rate_per_s=stream_rate,
                max_rate_per_s=max_rate_per_s * share,
                spec=self._node_spec[node.node_id],
                horizon_s=horizon_s,
                digest=Histogram("request_latency_seconds",
                                 buckets=REQUEST_LATENCY_BUCKETS_S),
                keep_records=keep_records,
                rng=BlockedDraws(seeds[k]),
            )
            self.sources.append(source)
            self._by_node.setdefault(node.node_id, []).append(source)
        self._sim: "Simulation | None" = None

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, sim: "Simulation") -> None:
        if self._sim is not None:
            raise WorkloadError("fleet traffic source already attached")
        self._sim = sim
        for source in self.sources:
            source.attach(sim)

    def detach(self) -> None:
        if self._sim is None:
            raise WorkloadError("fleet traffic source is not attached")
        for source in self.sources:
            if source.attached:
                source.detach()
        self._sim = None

    # -- accounting --------------------------------------------------------------

    @property
    def issued(self) -> int:
        return sum(s.issued for s in self.sources)

    @property
    def completed(self) -> int:
        self.harvest()
        return sum(s.completed for s in self.sources)

    @property
    def in_flight(self) -> int:
        return sum(s.in_flight for s in self.sources)

    def harvest(self) -> int:
        """Sweep every stream's completions into its histogram."""
        return sum(s.harvest() for s in self.sources)

    def _censor_into(self, digest: Histogram,
                     sources: list[ServerSource],
                     horizon_s: float | None) -> Histogram:
        for source in sources:
            digest.observe_many(source.inflight_lower_bounds_s(horizon_s))
        return digest

    def node_digest(self, node_id: int, *, censored: bool = False,
                    horizon_s: float | None = None) -> Histogram:
        """One node's merged latency histogram (fresh copy)."""
        try:
            sources = self._by_node[node_id]
        except KeyError:
            raise WorkloadError(f"no traffic on node {node_id}") from None
        self.harvest()
        digest = Histogram.merged(s.digest for s in sources)
        if censored:
            self._censor_into(digest, sources, horizon_s)
        return digest

    def fleet_digest(self, *, censored: bool = False,
                     horizon_s: float | None = None) -> Histogram:
        """The fleet-wide merged latency histogram (fresh copy).

        ``censored=True`` additionally observes every in-flight request's
        latency lower bound at the horizon (defaults to the attached
        simulation's current time) — the honest tail under overload.
        """
        self.harvest()
        digest = Histogram.merged(s.digest for s in self.sources)
        if censored:
            self._censor_into(digest, self.sources, horizon_s)
        return digest

    # -- the coordinator-facing view ----------------------------------------------

    def node_demands(self, now_s: float) -> dict[int, NodeDemand]:
        """Per-node serving demand at ``now_s``.

        The SLO-aware coordinator turns each entry into a frequency floor
        via :func:`repro.model.latency_model.frequency_floor_hz`.  Rates
        are per core: every core serves its own arrival stream.
        """
        demands: dict[int, NodeDemand] = {}
        for node_id, sources in self._by_node.items():
            # Streams split the fleet rate evenly, so any stream's rate is
            # the per-core rate.
            demands[node_id] = NodeDemand(
                rate_per_core_per_s=sources[0].rate(now_s),
                signature=self._node_signature[node_id],
                instructions=self._node_spec[node_id].instructions,
            )
        return demands
