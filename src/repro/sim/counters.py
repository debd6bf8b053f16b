"""Per-core performance counters and their (noisy) readers.

The Power4+ "provides performance counters for cache and memory accesses"
(Section 6); the prototype read them through a kernel interface every
``t`` milliseconds.  A :class:`CounterBank` is the hardware-side cumulative
register file; a :class:`CounterReader` belongs to the software side and
produces interval deltas (:class:`CounterSample`), optionally corrupted by
multiplicative read noise — one of the error sources behind Table 2.
A :class:`CounterBlock` is the same reader over many cores sampled at the
same instants, one row per core, with no per-sample objects (the cluster
agents' path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import CounterError
from ..model.ipc import MemoryCounts
from ..units import check_non_negative
from .rng import make_rng

__all__ = ["CounterBank", "CounterSnapshot", "CounterSample", "CounterReader",
           "CounterBlock"]

_FIELDS = ("instructions", "cycles", "n_l2", "n_l3", "n_mem",
           "l1_stall_cycles", "halted_cycles")

#: Ticks of read noise a :class:`CounterBlock` draws per refill.
_NOISE_TICKS = 16


@dataclass
class CounterBank:
    """Cumulative hardware counters of one core.

    ``cycles`` counts *run* cycles (clock ticks while executing, at whatever
    the effective frequency was); ``halted_cycles`` counts ticks spent
    halted for cores that idle by halting (zero on a hot-idling Power4+).
    """

    instructions: float = 0.0
    cycles: float = 0.0
    n_l2: float = 0.0
    n_l3: float = 0.0
    n_mem: float = 0.0
    l1_stall_cycles: float = 0.0
    halted_cycles: float = 0.0

    def add_execution(self, counts: MemoryCounts, cycles: float) -> None:
        """Accumulate one executed slice (expected-value counters)."""
        check_non_negative(cycles, "cycles")
        self.instructions += counts.instructions
        self.cycles += cycles
        self.n_l2 += counts.n_l2
        self.n_l3 += counts.n_l3
        self.n_mem += counts.n_mem
        self.l1_stall_cycles += counts.l1_stall_cycles

    def add_halted(self, cycles: float) -> None:
        """Accumulate halted ticks."""
        check_non_negative(cycles, "cycles")
        self.halted_cycles += cycles

    def snapshot(self) -> "CounterSnapshot":
        """An immutable copy of the current totals.

        While the owning core is resident in the fleet kernel, its running
        totals live in fleet columns and the bank's fields lag behind; the
        fleet installs ``_fleet_flush`` here so a snapshot (how a
        :class:`CounterReader` observes counters) synchronises first.
        Cluster agents read resident lanes straight from the columns
        instead (:func:`repro.sim.fleet.gather_counters`), which leaves
        the bank lagging until the next flush.
        """
        flush = getattr(self, "_fleet_flush", None)
        if flush is not None:
            flush()
        # Positional, not a getattr comprehension: this runs per core per
        # daemon sampling tick (field order is the dataclass order).
        return CounterSnapshot(self.instructions, self.cycles, self.n_l2,
                               self.n_l3, self.n_mem, self.l1_stall_cycles,
                               self.halted_cycles)


@dataclass(frozen=True, slots=True)
class CounterSnapshot:
    """Immutable counter totals at one instant."""

    instructions: float
    cycles: float
    n_l2: float
    n_l3: float
    n_mem: float
    l1_stall_cycles: float
    halted_cycles: float

    def as_tuple(self) -> tuple[float, ...]:
        """Field values in ``_FIELDS`` order."""
        return (self.instructions, self.cycles, self.n_l2, self.n_l3,
                self.n_mem, self.l1_stall_cycles, self.halted_cycles)

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Field-wise difference ``self - earlier``.

        Raises :class:`CounterError` on negative deltas (counter rollback),
        which would indicate a simulator bug.
        """
        values = []
        for name, a, b in zip(_FIELDS, self.as_tuple(), earlier.as_tuple()):
            d = a - b
            if d < -1e-6:
                raise CounterError(f"counter {name} went backwards by {-d}")
            values.append(max(0.0, d))
        return CounterSnapshot(*values)


@dataclass(frozen=True, slots=True)
class CounterSample:
    """One sampling interval as the daemon sees it."""

    time_s: float
    interval_s: float
    instructions: float
    cycles: float
    n_l2: float
    n_l3: float
    n_mem: float
    l1_stall_cycles: float
    halted_cycles: float

    @property
    def ipc(self) -> float:
        """Observed instructions per run cycle (0 for a fully halted interval)."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def effective_freq_hz(self) -> float:
        """Average effective frequency over the interval, inferred the way
        the daemon does it: run cycles divided by wall time."""
        return self.cycles / self.interval_s if self.interval_s > 0 else 0.0

    @property
    def halted_fraction(self) -> float:
        """Fraction of total ticks spent halted."""
        total = self.cycles + self.halted_cycles
        return self.halted_cycles / total if total > 0 else 0.0

    def memory_counts(self) -> MemoryCounts:
        """The subset the performance model consumes."""
        return MemoryCounts(
            instructions=self.instructions,
            n_l2=self.n_l2,
            n_l3=self.n_l3,
            n_mem=self.n_mem,
            l1_stall_cycles=self.l1_stall_cycles,
        )


class CounterReader:
    """Delta-producing reader over a :class:`CounterBank`.

    ``noise_sigma`` applies independent multiplicative Gaussian noise to
    each delta field (clamped non-negative), modelling sampling skew and
    multiplexed-counter estimation error on real hardware.
    """

    def __init__(self, bank: CounterBank, *, noise_sigma: float = 0.0,
                 dropout_prob: float = 0.0,
                 rng: np.random.Generator | int | None = None) -> None:
        check_non_negative(noise_sigma, "noise_sigma")
        if not 0.0 <= dropout_prob <= 1.0:
            raise CounterError("dropout_prob must lie in [0, 1]")
        self._bank = bank
        self._noise_sigma = noise_sigma
        #: Probability that a read fails outright (kernel interface busy,
        #: counter multiplexing conflict): the sample comes back empty and
        #: its events fold into the next successful read.
        self._dropout_prob = dropout_prob
        self._rng = make_rng(rng)
        self._last = bank.snapshot()
        self._last_time_s: float | None = None
        #: Number of failed reads so far.
        self.dropouts = 0

    def sample(self, now_s: float) -> CounterSample:
        """Read deltas since the previous sample (or since construction).

        A dropped read returns an all-zero sample for the interval; the
        unread events stay pending and appear in the next good read (the
        cumulative registers are the source of truth).
        """
        check_non_negative(now_s, "now_s")
        if self._dropout_prob > 0.0 and \
                float(self._rng.uniform()) < self._dropout_prob:
            # Neither the snapshot nor the timestamp advances: the missed
            # events and their wall time both land in the next good read,
            # keeping windowed aggregates exact.
            self.dropouts += 1
            return CounterSample(
                time_s=now_s, interval_s=0.0,
                **{f: 0.0 for f in _FIELDS},
            )
        snap = self._bank.snapshot()
        delta = snap.delta(self._last)
        if self._last_time_s is not None and now_s < self._last_time_s:
            raise CounterError(
                f"sample time went backwards: {now_s} < {self._last_time_s}"
            )
        interval = 0.0 if self._last_time_s is None else now_s - self._last_time_s
        self._last = snap
        self._last_time_s = now_s

        values = list(delta.as_tuple())
        if self._noise_sigma > 0.0:
            # One block draw: standard_normal(n) yields the exact stream of
            # n scalar draws, so noisy samples are unchanged bit-for-bit.
            draws = self._rng.standard_normal(len(_FIELDS))
            for i in range(len(_FIELDS)):
                noise = 1.0 + self._noise_sigma * float(draws[i])
                values[i] = max(0.0, values[i] * noise)
        return CounterSample(now_s, interval, *values)


class CounterBlock:
    """Delta reader over ``k`` cores sampled at the same instants.

    Row ``r`` is a :class:`CounterReader` without dropout over core ``r``,
    drawing its read noise from ``rngs[r]``: each :meth:`sample` applies
    that reader's operations elementwise, in the same order, so every row
    equals the scalar reader's sample bit-for-bit.  The caller passes the
    cores' current totals as a ``(7, k)`` array in :class:`CounterBank`
    field order (:func:`repro.sim.fleet.gather_counters` reads them).

    Noise comes in blocks: every ``_NOISE_TICKS`` noisy samples each row's
    generator refills its row of one preallocated buffer in place, and
    ``standard_normal(n)`` is exactly ``n`` scalar draws.
    """

    def __init__(self, totals: np.ndarray,
                 rngs: Sequence[np.random.Generator], *,
                 noise_sigma: float = 0.0) -> None:
        check_non_negative(noise_sigma, "noise_sigma")
        self.last = np.array(totals, dtype=float)
        if self.last.shape != (len(_FIELDS), len(rngs)):
            raise CounterError(
                f"totals have shape {self.last.shape}, expected "
                f"({len(_FIELDS)}, {len(rngs)})")
        self.last_time_s: float | None = None
        self._rngs = list(rngs)
        self._noise_sigma = noise_sigma
        self._noise: np.ndarray | None = None
        self._tick = _NOISE_TICKS

    def sample(self, now_s: float,
               totals: np.ndarray) -> tuple[np.ndarray, float]:
        """Deltas since the previous sample (or since construction) as a
        ``(7, k)`` array, and the interval they cover.  ``totals`` is kept
        as the next sample's baseline, so it must be a fresh array."""
        check_non_negative(now_s, "now_s")
        d = totals - self.last
        back = d < -1e-6
        if back.any():
            row, field = np.argwhere(back.T)[0]
            raise CounterError(f"counter {_FIELDS[field]} went backwards "
                               f"by {-d[field, row]}")
        # max(0.0, d) on every input, NaN and -0.0 included.
        d = np.where(d > 0.0, d, 0.0)
        last_time = self.last_time_s
        if last_time is not None and now_s < last_time:
            raise CounterError(
                f"sample time went backwards: {now_s} < {last_time}")
        interval = 0.0 if last_time is None else now_s - last_time
        self.last = totals
        self.last_time_s = now_s
        if self._noise_sigma > 0.0:
            t = self._tick
            if t == _NOISE_TICKS:
                self._refill()
                t = 0
            self._tick = t + 1
            n = len(_FIELDS)
            draws = self._noise[:, n * t:n * (t + 1)].T
            d = d * (1.0 + self._noise_sigma * draws)
            d = np.where(d > 0.0, d, 0.0)
        return d, interval

    def _refill(self) -> None:
        buf = self._noise
        if buf is None:
            buf = self._noise = np.empty(
                (len(self._rngs), len(_FIELDS) * _NOISE_TICKS))
        for rng, row in zip(self._rngs, buf):
            rng.standard_normal(out=row)
