"""A latency/cost model for cluster communication.

The paper amortises "the overhead of ... the inter-processor communication
required" by choosing a large scheduling period ``T`` (Section 5).  To make
that trade-off measurable, the cluster coordinator routes its counter
collections and frequency commands through a :class:`Network` that charges a
base latency plus a per-byte cost and counts traffic.

The network is perfectly reliable by default.  Installing a
:class:`NetworkFaults` plan turns on the failure modes real deployments
treat as the common case: independent per-message loss, multiplicative
latency jitter, and partition windows that cut a subset of nodes off the
fabric.  All randomness is drawn from one seeded generator
(:mod:`repro.sim.rng`), so a fault run is reproducible from its seed.
Fault-aware callers use :meth:`Network.try_send`; the plain
:meth:`Network.send` path is untouched, so fault-free simulations are
bit-identical with or without this extension present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ClusterError
from ..units import check_non_negative
from .rng import make_rng

__all__ = ["NetworkConfig", "Network", "NetworkFaults", "PartitionWindow"]


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Latency parameters of the cluster interconnect."""

    #: One-way base latency of any message (switch + stack), seconds.
    base_latency_s: float = 100e-6
    #: Additional seconds per payload byte (inverse bandwidth).
    per_byte_s: float = 8e-9   # ~1 Gbit/s

    def __post_init__(self) -> None:
        check_non_negative(self.base_latency_s, "base_latency_s")
        check_non_negative(self.per_byte_s, "per_byte_s")


@dataclass(frozen=True, slots=True)
class PartitionWindow:
    """A time window during which some (or all) nodes are unreachable."""

    start_s: float
    end_s: float
    #: Nodes cut off the fabric; ``None`` partitions every node.
    node_ids: frozenset[int] | None = None

    def __post_init__(self) -> None:
        check_non_negative(self.start_s, "start_s")
        if self.end_s <= self.start_s:
            raise ClusterError(
                f"partition window [{self.start_s}, {self.end_s}) is empty"
            )

    def cuts(self, node_id: int, now_s: float) -> bool:
        """Whether messages to/from ``node_id`` are cut at ``now_s``."""
        if not (self.start_s <= now_s < self.end_s):
            return False
        return self.node_ids is None or node_id in self.node_ids


class NetworkFaults:
    """Deterministic, seeded fault plan for a :class:`Network`.

    Loss and jitter draw from one private generator, so two runs with the
    same seed see the same drop pattern regardless of what other components
    do with their own streams.
    """

    def __init__(self, *, loss_prob: float = 0.0,
                 jitter_sigma: float = 0.0,
                 partitions: tuple[PartitionWindow, ...] = (),
                 seed: int | None = None) -> None:
        if not 0.0 <= loss_prob <= 1.0:
            raise ClusterError("loss_prob must be within [0, 1]")
        check_non_negative(jitter_sigma, "jitter_sigma")
        self.loss_prob = loss_prob
        self.jitter_sigma = jitter_sigma
        self.partitions = tuple(partitions)
        self._rng = make_rng(seed)

    def partitioned(self, node_id: int, now_s: float) -> bool:
        """Whether ``node_id`` is inside a partition window at ``now_s``."""
        return any(w.cuts(node_id, now_s) for w in self.partitions)

    def drops(self, node_id: int, now_s: float) -> bool:
        """Decide the fate of one message to/from ``node_id``.

        Partition windows drop deterministically (and consume no
        randomness); otherwise an independent Bernoulli draw at
        ``loss_prob``.
        """
        if self.partitioned(node_id, now_s):
            return True
        if self.loss_prob <= 0.0:
            return False
        return bool(self._rng.random() < self.loss_prob)

    def jitter_factor(self) -> float:
        """Multiplicative latency factor (lognormal around 1, >= 0)."""
        if self.jitter_sigma <= 0.0:
            return 1.0
        return float(self._rng.lognormal(mean=0.0, sigma=self.jitter_sigma))


@dataclass
class Network:
    """Message accounting plus deterministic delay computation."""

    config: NetworkConfig = field(default_factory=NetworkConfig)
    #: Optional fault plan consulted by :meth:`try_send` only.
    faults: NetworkFaults | None = None
    messages_sent: int = field(default=0, init=False)
    bytes_sent: int = field(default=0, init=False)
    messages_dropped: int = field(default=0, init=False)

    def delay_for(self, payload_bytes: int) -> float:
        """One-way delivery delay for a message of the given size."""
        if payload_bytes < 0:
            raise ClusterError("payload size cannot be negative")
        return self.config.base_latency_s + self.config.per_byte_s * payload_bytes

    def send(self, payload_bytes: int) -> float:
        """Account one message; returns its delivery delay."""
        delay = self.delay_for(payload_bytes)
        self.messages_sent += 1
        self.bytes_sent += payload_bytes
        return delay

    def try_send(self, payload_bytes: int, *, now_s: float,
                 node_id: int) -> float | None:
        """Fault-aware send: delivery delay, or ``None`` when dropped.

        Dropped messages are still accounted (they were put on the wire)
        and tallied in :attr:`messages_dropped`.  Without an installed
        fault plan this is exactly :meth:`send`.
        """
        delay = self.send(payload_bytes)
        if self.faults is None:
            return delay
        if self.faults.drops(node_id, now_s):
            self.messages_dropped += 1
            return None
        return delay * self.faults.jitter_factor()
