"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately dependency-free (no ``prometheus_client``):
three metric kinds cover everything the fvsst daemon, the cluster
coordinator, and the simulation driver need to report, and the exporters
(:mod:`repro.telemetry.export_prom`, :mod:`repro.telemetry.export_jsonl`,
:mod:`repro.telemetry.summary`) render the same snapshot three ways.

Semantics follow the Prometheus data model where it matters:

* **Counters** are monotonic.  Negative increments raise; values are plain
  Python numbers, so there is *no* wraparound — a counter pushed past
  2**64 keeps exact arbitrary-precision arithmetic rather than
  overflowing (pinned by the overflow tests).
* **Gauges** go up and down.
* **Histograms** have fixed upper bounds with ``le`` (less-or-equal)
  semantics: an observation exactly on a bucket edge lands in that
  bucket, and an implicit ``+Inf`` bucket catches the rest.  They also
  track their maximum and merge bucket-wise, which is how the serving
  layer scores request latency per node and fleet-wide.

Every metric carries its own lock, so the multi-threaded daemon's
collector/actuator threads may hammer a shared registry concurrently (the
concurrency tests drive this with real threads).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Wall-clock latency buckets (seconds) sized for the daemon's microsecond
#: to millisecond pass costs.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared identity/lock plumbing for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Mapping[str, str] | None = None) -> None:
        if not name or not all(c.isalnum() or c in "_:" for c in name):
            raise TelemetryError(
                f"invalid metric name {name!r} (alphanumerics, '_' and ':')"
            )
        self.name = name
        self.help = help
        self.labels: dict[str, str] = dict(_label_key(labels))
        self._lock = threading.Lock()

    @property
    def label_key(self) -> _LabelKey:
        return _label_key(self.labels)

    def value_dict(self) -> dict:
        """Snapshot of this metric's current value(s) as plain data."""
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count (events, bytes, iterations)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (>= 0); monotonicity is enforced, not assumed."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name}: negative increment {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def value_dict(self) -> dict:
        return {"value": self._value}

    def _restore(self, value: int | float) -> None:
        """Set the raw value (exporter round-trips only)."""
        with self._lock:
            self._value = value


class Gauge(_Metric):
    """A value that can rise and fall (planned power, active limit)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def value_dict(self) -> dict:
        return {"value": self._value}

    def _restore(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Histogram(_Metric):
    """Fixed-bucket distribution with ``le`` (<=) bucket semantics.

    Histograms with the same bounds are mergeable (:meth:`merge`,
    :meth:`merged`): counts add bucket-wise, sums add and the larger
    maximum is kept, so a percentile is computable per core, per node and
    fleet-wide without storing a single observation.  :meth:`percentile` and
    :meth:`fraction_below` interpolate linearly within a bucket
    (Prometheus ``histogram_quantile`` semantics), with the ``+Inf``
    bucket bounded by the tracked maximum.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Mapping[str, str] | None = None, *,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        super().__init__(name, help, labels)
        uppers = [float(b) for b in buckets]
        if not uppers:
            raise TelemetryError(f"histogram {name}: needs at least one bucket")
        if any(not math.isfinite(b) for b in uppers):
            raise TelemetryError(
                f"histogram {name}: buckets must be finite (+Inf is implicit)"
            )
        if sorted(uppers) != uppers or len(set(uppers)) != len(uppers):
            raise TelemetryError(
                f"histogram {name}: buckets must be strictly increasing"
            )
        self.uppers: tuple[float, ...] = tuple(uppers)
        #: Per-bucket (non-cumulative) counts; the last slot is +Inf.
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation; edge values land in the edge's bucket."""
        value = float(value)
        idx = bisect.bisect_left(self.uppers, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch in one vectorised pass and one lock acquisition.

        Hot paths accumulate observations in a plain list and flush them
        here, amortising the lock and call overhead across the batch.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        # searchsorted(side="left") == bisect_left, per value.
        slots = np.searchsorted(np.asarray(self.uppers), values, side="left")
        binned = np.bincount(slots, minlength=len(self._counts)).tolist()
        total = float(values.sum())
        top = float(values.max())
        with self._lock:
            for i, c in enumerate(binned):
                self._counts[i] += c
            self._sum += total
            self._count += int(values.size)
            self._max = max(self._max, top)

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other`` into this histogram (in place; returns self)."""
        if other.uppers != self.uppers:
            raise TelemetryError(
                f"histogram {self.name}: cannot merge histograms with "
                f"different buckets"
            )
        with other._lock:
            counts = list(other._counts)
            sum_, count, max_ = other._sum, other._count, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += sum_
            self._count += count
            self._max = max(self._max, max_)
        return self

    @classmethod
    def merged(cls, histograms: Iterable["Histogram"]) -> "Histogram":
        """A fresh histogram, named and bucketed like the first of
        ``histograms``, holding their sum."""
        histograms = list(histograms)
        if not histograms:
            raise TelemetryError("no histograms to merge")
        first = histograms[0]
        out = cls(first.name, first.help, first.labels, buckets=first.uppers)
        for histogram in histograms:
            out.merge(histogram)
        return out

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        """The largest observation (0.0 when empty; not exported)."""
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def counts(self) -> tuple[int, ...]:
        """Non-cumulative counts, one per upper bound plus +Inf."""
        return tuple(self._counts)

    def cumulative_counts(self) -> tuple[int, ...]:
        """Prometheus-style cumulative counts (last equals ``count``)."""
        out, running = [], 0
        for c in self._counts:
            running += c
            out.append(running)
        return tuple(out)

    def percentile(self, pct: float) -> float:
        """The ``pct``-percentile, linearly interpolated within its bucket
        and never above the maximum; a rank in the ``+Inf`` bucket reports
        the maximum."""
        if not 0.0 < pct <= 100.0:
            raise TelemetryError(
                f"histogram {self.name}: percentile must be in (0, 100], "
                f"got {pct}"
            )
        if self._count == 0:
            raise TelemetryError(f"histogram {self.name}: no observations")
        rank = pct / 100.0 * self._count
        cumulative = 0
        for i, c in enumerate(self._counts):
            cumulative += c
            if cumulative >= rank:
                if i == len(self.uppers):
                    return self._max
                lower = 0.0 if i == 0 else self.uppers[i - 1]
                upper = self.uppers[i]
                frac = (rank - (cumulative - c)) / c
                return min(lower + (upper - lower) * frac, self._max)
        return self._max  # pragma: no cover — rank <= count always lands

    def fraction_below(self, value: float) -> float:
        """The fraction of observations at or below ``value``, interpolated
        within the straddling bucket: the compliance score for an SLO
        target that need not sit on a bucket edge."""
        if not (math.isfinite(value) and value >= 0):
            raise TelemetryError(
                f"histogram {self.name}: fraction_below needs a finite "
                f"value >= 0, got {value!r}"
            )
        if self._count == 0:
            raise TelemetryError(f"histogram {self.name}: no observations")
        below = 0.0
        lower = 0.0
        for i, upper in enumerate(self.uppers):
            if value >= upper:
                below += self._counts[i]
                lower = upper
                continue
            span = upper - lower
            frac = (value - lower) / span if span > 0 else 1.0
            below += self._counts[i] * frac
            return min(1.0, below / self._count)
        # Past the last finite bound: interpolate +Inf up to the maximum.
        if self._max > lower and value < self._max:
            frac = (value - lower) / (self._max - lower)
            below += self._counts[-1] * frac
        else:
            below += self._counts[-1]
        return min(1.0, below / self._count)

    def value_dict(self) -> dict:
        return {
            "buckets": list(self.uppers),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def _restore(self, counts: Iterable[int], sum_: float,
                 count: int) -> None:
        counts = list(counts)
        if len(counts) != len(self.uppers) + 1:
            raise TelemetryError(
                f"histogram {self.name}: restore expects "
                f"{len(self.uppers) + 1} bucket counts, got {len(counts)}"
            )
        if any(c < 0 for c in counts) or sum(counts) != count:
            raise TelemetryError(
                f"histogram {self.name}: restore needs non-negative bucket "
                f"counts summing to count={count}, got {counts}"
            )
        # A snapshot does not carry the maximum: keep the tightest bound it
        # implies, the top of the highest non-empty bucket.
        top = max((upper for upper, c in zip((*self.uppers, math.inf), counts)
                   if c), default=0.0)
        with self._lock:
            self._counts = counts
            self._sum = float(sum_)
            self._count = int(count)
            self._max = top


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by (name, labels).

    Re-requesting an existing metric returns the same object; requesting
    the same name with a different kind (or different histogram buckets)
    raises — the catalog is append-only and internally consistent.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, _LabelKey], _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str,
                       labels: Mapping[str, str] | None,
                       **kwargs) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TelemetryError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                if (isinstance(existing, Histogram) and "buckets" in kwargs
                        and tuple(float(b) for b in kwargs["buckets"])
                        != existing.uppers):
                    raise TelemetryError(
                        f"histogram {name!r} already registered with "
                        f"different buckets"
                    )
                return existing
            # Kind collisions across label sets are also conflicts.
            for (other_name, _), other in self._metrics.items():
                if other_name == name and not isinstance(other, cls):
                    raise TelemetryError(
                        f"metric {name!r} already registered as {other.kind}"
                    )
            metric = cls(name, help, labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Mapping[str, str] | None = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labels: Mapping[str, str] | None = None, *,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)  # type: ignore[return-value]

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> list[_Metric]:
        """All metrics, sorted by (name, labels) for deterministic export."""
        with self._lock:
            return sorted(self._metrics.values(),
                          key=lambda m: (m.name, m.label_key))

    def get(self, name: str,
            labels: Mapping[str, str] | None = None) -> _Metric | None:
        """Look up a metric without creating it."""
        return self._metrics.get((name, _label_key(labels)))

    def snapshot(self) -> dict:
        """The full registry as plain, JSON-serialisable data."""
        out: dict = {}
        for metric in self.collect():
            series = out.setdefault(metric.name, {
                "type": metric.kind,
                "help": metric.help,
                "series": [],
            })
            series["series"].append({
                "labels": dict(metric.labels),
                **metric.value_dict(),
            })
        return out

    def reset(self) -> None:
        """Drop every metric (tests and CLI reinitialisation)."""
        with self._lock:
            self._metrics.clear()
