"""The benchmark's clock: process CPU time, scaled to a reference core speed.

Every host time the benchmark reports is CPU time of the workload process
(``time.process_time``), not elapsed time.  On a shared virtual machine
the elapsed time of a run also counts the spells in which the process, or
the whole virtual CPU, waited for another tenant; CPU time leaves those
out (the guest kernel accounts stolen time apart).

What CPU time keeps is the speed of the core while the process ran, and
on a shared host that moves too: clock frequency, a busy hyperthread
sibling, caches shared with other tenants.  So each run also times a
fixed *reference quantum* of interpreter and small-array numpy work, once
after every timed segment, and reports its times multiplied by
``REFERENCE_QUANTUM_S`` over the median quantum of the run.  The result is
CPU seconds on a core that runs the quantum in ``REFERENCE_QUANTUM_S``:
a slower spell of the host slows the quantum and the workload alike, and
the ratio stays.  The quantum lives here, apart from the simulator, so a
change to ``src/`` never changes the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The clock every timing of the benchmark reads.
clock = time.process_time

#: CPU time of one reference quantum on the core the benchmark's numbers
#: are scaled to (the median measured on a quiet 2-vCPU Sapphire Rapids
#: KVM guest, Python 3.11, numpy 2.4).
REFERENCE_QUANTUM_S = 7.0e-4

#: Quanta run and discarded before the first one is timed.
_WARM_QUANTA = 5

_LANES = np.linspace(0.0, 1.0, 1024)


def _quantum() -> float:
    """A fixed mix like the simulator's: a dict-and-float interpreter loop,
    then vector passes over a 1024-lane array.  It fits in the L1 and L2
    caches, so it does not evict the workload's own working set."""
    acc = 0.0
    buckets: dict[int, float] = {}
    for i in range(1500):
        x = (i * 0.618) % 1.0
        k = i & 63
        buckets[k] = buckets.get(k, 0.0) + x
        acc += x * x
    lanes = _LANES
    for _ in range(30):
        capped = np.minimum(lanes * 1.0001, 0.9)
        acc += float(np.cumsum(capped)[-1])
        acc += float(np.where(capped > 0.5, capped, 0.0).sum())
    return acc


class Reference:
    """The reference quanta of one run."""

    def __init__(self) -> None:
        for _ in range(_WARM_QUANTA):
            _quantum()
        self.times: list[float] = []

    def tick(self) -> None:
        """Run and time one quantum."""
        c0 = clock()
        _quantum()
        self.times.append(clock() - c0)

    def speed(self) -> float:
        """The host core's speed during the run, relative to the reference
        core: the factor from CPU seconds to reference seconds."""
        return REFERENCE_QUANTUM_S / statistics.median(self.times)
