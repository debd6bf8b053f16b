"""The per-core OS dispatcher (Section 6's Linux substrate).

A round-robin dispatcher with a fixed time quantum multiplexes the jobs
assigned to one core.  Work has "strong or complete affinity ... to its
originally assigned processors" (Section 4.2): jobs never migrate, matching
both the paper's assumption and the cluster reality it argues from.

The 10 ms quantum reflects the 2.6-era Linux time slice that constrained
the prototype's choice of ``t`` ("values for t of less than 10 ms interfere
with the time quantum used in the operating system").
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError
from ..units import check_positive
from ..workloads.job import Job

__all__ = ["Dispatcher", "DEFAULT_QUANTUM_S"]

#: Linux 2.6-era default time slice.
DEFAULT_QUANTUM_S = 0.010


class Dispatcher:
    """Round-robin multiplexing of jobs on one core."""

    def __init__(self, *, quantum_s: float = DEFAULT_QUANTUM_S) -> None:
        check_positive(quantum_s, "quantum_s")
        self.quantum_s = quantum_s
        self._queue: deque[Job] = deque()
        self._quantum_left_s = quantum_s
        #: Jobs that ran to completion on this core.
        self.finished: list[Job] = []

    # -- queue management -------------------------------------------------------

    def add_job(self, job: Job) -> None:
        """Enqueue a job (it stays on this core for life — affinity)."""
        if job.done:
            raise SimulationError(f"cannot enqueue completed job {job.name!r}")
        self._queue.append(job)

    def remove_job(self, job: Job) -> None:
        """Take a job off this core (the migration path).

        Only callable between execution slices — i.e. from event callbacks,
        never from inside ``account_run``.  Resets the quantum if the
        current job was removed.
        """
        try:
            was_current = self._queue[0] is job
        except IndexError:
            was_current = False
        try:
            self._queue.remove(job)
        except ValueError:
            raise SimulationError(
                f"job {job.name!r} is not queued on this core"
            ) from None
        if was_current:
            self._quantum_left_s = self.quantum_s

    @property
    def runnable(self) -> int:
        """Number of runnable jobs."""
        return len(self._queue)

    @property
    def jobs(self) -> tuple[Job, ...]:
        """The runnable jobs, current first."""
        return tuple(self._queue)

    def current_job(self) -> Job | None:
        """The job that owns the core right now (None when idle)."""
        return self._queue[0] if self._queue else None

    # -- time accounting ----------------------------------------------------------

    def slice_limit_s(self) -> float:
        """How much wall time the current job may still run before the
        dispatcher would rotate the queue."""
        if len(self._queue) <= 1:
            return float("inf")  # sole job never needs preemption
        return self._quantum_left_s

    def account_run(self, job: Job, ran_s: float, now_s: float) -> None:
        """Charge ``ran_s`` of execution to ``job`` and rotate/retire as needed.

        The core calls this after executing a slice; ``job`` must be the
        current job.
        """
        if not self._queue or self._queue[0] is not job:
            raise SimulationError("accounted job is not the dispatched job")
        if ran_s < 0:
            raise SimulationError(f"negative run time {ran_s}")
        if job.done:
            self._queue.popleft()
            self.finished.append(job)
            self._quantum_left_s = self.quantum_s
            return
        if len(self._queue) > 1:
            self._quantum_left_s -= ran_s
            if self._quantum_left_s <= 1e-12:
                self._queue.rotate(-1)
                self._quantum_left_s = self.quantum_s
