"""Scheduling and counter logs (Section 6).

"The program generates both scheduling and performance counter data logs
that provide performance and frequency information for monitoring and data
analysis."  These logs are the raw material of every figure in the paper:
Figure 5's IPC/frequency/power series, Figure 8's frequency residency,
Figure 9/10's desired-vs-actual traces, and Table 2's predicted-vs-measured
IPC deviations all come out of :class:`FvsstLog` queries.

The backing store is columnar: rows live in growable numpy arrays (one per
field).  Counter samples are recorded one by one
(:meth:`FvsstLog.record_sample`) and scheduling decisions as whole passes
(:meth:`FvsstLog.record_schedule_pass`, one call per daemon or coordinator
pass).  Queries run vectorised over the columns
through a lazily built per-``(node, proc)`` row index; the familiar
``ScheduleLogEntry``/``CounterLogEntry`` objects are materialised lazily
(and cached) only when someone actually asks for them.  ``None`` in the
optional float fields is stored as NaN, so an *actual* NaN recorded there
would read back as ``None`` — no producer records NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ExperimentError
from ..sim.counters import CounterSample

__all__ = ["ScheduleLogEntry", "CounterLogEntry", "FvsstLog"]


@dataclass(frozen=True, slots=True)
class CounterLogEntry:
    """One counter sample from one processor."""

    time_s: float
    node_id: int
    proc_id: int
    sample: CounterSample


@dataclass(frozen=True, slots=True)
class ScheduleLogEntry:
    """One scheduling decision for one processor."""

    time_s: float
    node_id: int
    proc_id: int
    #: Final scheduled frequency.
    freq_hz: float
    #: Step-1 epsilon-constrained ("desired") frequency.
    eps_freq_hz: float
    voltage: float
    power_w: float
    predicted_loss: float
    #: IPC the predictor expects at ``freq_hz`` over the next interval
    #: (None when the window carried no usable data).
    predicted_ipc: float | None
    #: The limit in force (None = unconstrained).
    power_limit_w: float | None
    #: True when this decision hit the infeasible-floor path.
    infeasible: bool
    #: Wall-clock cost of the pass that produced this decision (None when
    #: the producer does not measure it).  The coordinator fills this in,
    #: making prediction-overhead claims checkable from the log alone.
    pass_wall_s: float | None = None


class _ColumnStore:
    """Growable structure-of-arrays store with amortised-doubling appends."""

    __slots__ = ("_spec", "_cols", "_n", "_cap")

    def __init__(self, spec: dict[str, type]) -> None:
        self._spec = dict(spec)
        self._cols: dict[str, np.ndarray] = {}
        self._n = 0
        self._cap = 0

    def __len__(self) -> int:
        return self._n

    def append(self, count: int, **values) -> None:
        """Append ``count`` rows; each value is a scalar (broadcast) or a
        length-``count`` sequence."""
        need = self._n + count
        if need > self._cap:
            new_cap = max(64, 2 * self._cap)
            while new_cap < need:
                new_cap *= 2
            for name, dt in self._spec.items():
                fresh = np.empty(new_cap, dtype=dt)
                old = self._cols.get(name)
                if old is not None:
                    fresh[:self._n] = old[:self._n]
                self._cols[name] = fresh
            self._cap = new_cap
        stop = self._n + count
        for name, value in values.items():
            self._cols[name][self._n:stop] = value
        self._n = stop

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column's filled rows."""
        if self._n == 0:
            return np.empty(0, dtype=self._spec[name])
        return self._cols[name][:self._n]


_SCHED_SPEC = {
    "time_s": float, "node_id": np.int64, "proc_id": np.int64,
    "freq_hz": float, "eps_freq_hz": float, "voltage": float,
    "power_w": float, "predicted_loss": float, "predicted_ipc": float,
    "power_limit_w": float, "infeasible": bool, "pass_wall_s": float,
}

_COUNTER_SPEC = {
    "time_s": float, "node_id": np.int64, "proc_id": np.int64,
    "sample_time_s": float, "interval_s": float, "instructions": float,
    "cycles": float, "n_l2": float, "n_l3": float, "n_mem": float,
    "l1_stall_cycles": float, "halted_cycles": float,
}


class FvsstLog:
    """Accumulated logs plus the queries the experiments need."""

    __slots__ = ("_sched", "_counters", "_pending_counters",
                 "_sched_cache", "_counter_cache", "_sched_index",
                 "_sched_indexed", "_counter_index", "_counter_indexed")

    def __init__(self) -> None:
        self._sched = _ColumnStore(_SCHED_SPEC)
        self._counters = _ColumnStore(_COUNTER_SPEC)
        #: Samples recorded one by one, not yet moved into columns.
        self._pending_counters: list[CounterLogEntry] = []
        #: Materialised entry lists (invalidated by any record).
        self._sched_cache: list[ScheduleLogEntry] | None = None
        self._counter_cache: list[CounterLogEntry] | None = None
        #: Lazily built (node, proc) -> row-offsets maps plus watermarks of
        #: how many column rows each has already absorbed.
        self._sched_index: dict[tuple[int, int], list[int]] = {}
        self._sched_indexed = 0
        self._counter_index: dict[tuple[int, int], list[int]] = {}
        self._counter_indexed = 0

    # -- recording -----------------------------------------------------------------

    def record_sample(self, entry: CounterLogEntry) -> None:
        self._pending_counters.append(entry)
        self._counter_cache = None

    def record_schedule_pass(self, time_s: float,
                             node_ids: Sequence[int],
                             proc_ids: Sequence[int],
                             freqs_hz: Sequence[float],
                             eps_freqs_hz: Sequence[float],
                             voltages: Sequence[float],
                             powers_w: Sequence[float],
                             predicted_losses: Sequence[float], *,
                             predicted_ipcs: Sequence[float | None] | None = None,
                             power_limit_w: float | None = None,
                             infeasible: bool = False,
                             pass_wall_s: float | None = None) -> None:
        """Record one whole scheduling pass columnar — one row per
        processor, one append, no per-row entry objects."""
        count = len(node_ids)
        if not count:
            return
        nan = math.nan
        if predicted_ipcs is None:
            ipc_col: float | list[float] = nan
        else:
            ipc_col = [nan if v is None else v for v in predicted_ipcs]
        self._sched.append(
            count,
            time_s=time_s, node_id=node_ids, proc_id=proc_ids,
            freq_hz=freqs_hz, eps_freq_hz=eps_freqs_hz, voltage=voltages,
            power_w=powers_w, predicted_loss=predicted_losses,
            predicted_ipc=ipc_col,
            power_limit_w=nan if power_limit_w is None else power_limit_w,
            infeasible=infeasible,
            pass_wall_s=nan if pass_wall_s is None else pass_wall_s,
        )
        self._sched_cache = None

    # -- column flushing --------------------------------------------------------------

    def _flush_counters(self) -> None:
        pend = self._pending_counters
        if not pend:
            return
        self._counters.append(
            len(pend),
            time_s=[e.time_s for e in pend],
            node_id=[e.node_id for e in pend],
            proc_id=[e.proc_id for e in pend],
            sample_time_s=[e.sample.time_s for e in pend],
            interval_s=[e.sample.interval_s for e in pend],
            instructions=[e.sample.instructions for e in pend],
            cycles=[e.sample.cycles for e in pend],
            n_l2=[e.sample.n_l2 for e in pend],
            n_l3=[e.sample.n_l3 for e in pend],
            n_mem=[e.sample.n_mem for e in pend],
            l1_stall_cycles=[e.sample.l1_stall_cycles for e in pend],
            halted_cycles=[e.sample.halted_cycles for e in pend],
        )
        self._pending_counters = []

    # -- lazy materialisation -----------------------------------------------------------

    @property
    def schedule_entries(self) -> list[ScheduleLogEntry]:
        """All scheduling decisions, in record order, as entry objects."""
        if self._sched_cache is None:
            s = self._sched
            self._sched_cache = [
                ScheduleLogEntry(
                    time_s=t, node_id=nd, proc_id=pc, freq_hz=f,
                    eps_freq_hz=ef, voltage=v, power_w=w, predicted_loss=pl,
                    predicted_ipc=None if ipc != ipc else ipc,
                    power_limit_w=None if lim != lim else lim,
                    infeasible=inf,
                    pass_wall_s=None if ws != ws else ws,
                )
                for t, nd, pc, f, ef, v, w, pl, ipc, lim, inf, ws in zip(
                    s.column("time_s").tolist(), s.column("node_id").tolist(),
                    s.column("proc_id").tolist(), s.column("freq_hz").tolist(),
                    s.column("eps_freq_hz").tolist(),
                    s.column("voltage").tolist(), s.column("power_w").tolist(),
                    s.column("predicted_loss").tolist(),
                    s.column("predicted_ipc").tolist(),
                    s.column("power_limit_w").tolist(),
                    s.column("infeasible").tolist(),
                    s.column("pass_wall_s").tolist())
            ]
        return self._sched_cache

    @property
    def counter_entries(self) -> list[CounterLogEntry]:
        """All counter samples, in record order, as entry objects."""
        if self._counter_cache is None:
            self._flush_counters()
            s = self._counters
            self._counter_cache = [
                CounterLogEntry(
                    time_s=t, node_id=nd, proc_id=pc,
                    sample=CounterSample(
                        time_s=st, interval_s=dt, instructions=instr,
                        cycles=cyc, n_l2=l2, n_l3=l3, n_mem=mm,
                        l1_stall_cycles=l1, halted_cycles=hc),
                )
                for t, nd, pc, st, dt, instr, cyc, l2, l3, mm, l1, hc in zip(
                    s.column("time_s").tolist(), s.column("node_id").tolist(),
                    s.column("proc_id").tolist(),
                    s.column("sample_time_s").tolist(),
                    s.column("interval_s").tolist(),
                    s.column("instructions").tolist(),
                    s.column("cycles").tolist(), s.column("n_l2").tolist(),
                    s.column("n_l3").tolist(), s.column("n_mem").tolist(),
                    s.column("l1_stall_cycles").tolist(),
                    s.column("halted_cycles").tolist())
            ]
        return self._counter_cache

    # -- the (node, proc) row index ------------------------------------------------------

    def _sched_rows(self, node_id: int, proc_id: int) -> np.ndarray:
        n = len(self._sched)
        if self._sched_indexed < n:
            start = self._sched_indexed
            nodes = self._sched.column("node_id")[start:].tolist()
            procs = self._sched.column("proc_id")[start:].tolist()
            index = self._sched_index
            for off, key in enumerate(zip(nodes, procs), start=start):
                index.setdefault(key, []).append(off)
            self._sched_indexed = n
        return np.asarray(self._sched_index.get((node_id, proc_id), []),
                          dtype=np.intp)

    def _counter_rows(self, node_id: int, proc_id: int) -> np.ndarray:
        self._flush_counters()
        n = len(self._counters)
        if self._counter_indexed < n:
            start = self._counter_indexed
            nodes = self._counters.column("node_id")[start:].tolist()
            procs = self._counters.column("proc_id")[start:].tolist()
            index = self._counter_index
            for off, key in enumerate(zip(nodes, procs), start=start):
                index.setdefault(key, []).append(off)
            self._counter_indexed = n
        return np.asarray(self._counter_index.get((node_id, proc_id), []),
                          dtype=np.intp)

    # -- per-processor filters -------------------------------------------------------

    def samples_of(self, node_id: int, proc_id: int) -> list[CounterLogEntry]:
        entries = self.counter_entries
        return [entries[i] for i in
                self._counter_rows(node_id, proc_id).tolist()]

    def schedules_of(self, node_id: int, proc_id: int) -> list[ScheduleLogEntry]:
        entries = self.schedule_entries
        return [entries[i] for i in
                self._sched_rows(node_id, proc_id).tolist()]

    # -- series (Figures 5, 9, 10) ----------------------------------------------------

    def ipc_series(self, node_id: int, proc_id: int
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(times, measured IPC) of one processor."""
        rows = self._counter_rows(node_id, proc_id)
        t = self._counters.column("time_s")[rows]
        instr = self._counters.column("instructions")[rows]
        cyc = self._counters.column("cycles")[rows]
        ran = cyc > 0.0
        ipc = np.where(ran, instr / np.where(ran, cyc, 1.0), 0.0)
        return t, ipc

    def frequency_series(self, node_id: int, proc_id: int, *,
                         desired: bool = False
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(times, scheduled frequency); ``desired=True`` returns the
        step-1 epsilon-constrained series instead (Figure 9's two curves)."""
        rows = self._sched_rows(node_id, proc_id)
        t = self._sched.column("time_s")[rows]
        f = self._sched.column("eps_freq_hz" if desired else "freq_hz")[rows]
        return t, f

    def power_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, total scheduled processor power) across all processors.

        When a processor carries several decisions at one instant — a
        trigger pass (``set_power_limit`` / ``set_node_limit``) landing at
        the same ``time_s`` as a periodic pass — only the *last* recorded
        decision per ``(time, node, proc)`` counts: the later pass
        supersedes the earlier one, it does not add to it.
        """
        count = len(self._sched)
        if count == 0:
            return np.array([]), np.array([])
        t = self._sched.column("time_s")
        nd = self._sched.column("node_id")
        pc = self._sched.column("proc_id")
        w = self._sched.column("power_w")
        # Stable sort by (time, node, proc) keeps record order within a
        # key, so the last row of each group is the latest decision.
        order = np.lexsort((pc, nd, t))
        ts, ns, ps = t[order], nd[order], pc[order]
        last = np.ones(count, dtype=bool)
        last[:-1] = ~((ts[1:] == ts[:-1]) & (ns[1:] == ns[:-1])
                      & (ps[1:] == ps[:-1]))
        keep = order[last]
        times, inverse = np.unique(t[keep], return_inverse=True)
        totals = np.bincount(inverse, weights=w[keep], minlength=times.size)
        return times, totals

    # -- residency (Figure 8) -----------------------------------------------------------

    def frequency_residency(self, node_id: int, proc_id: int, *,
                            desired: bool = False) -> dict[float, float]:
        """Fraction of scheduling intervals spent at each frequency.

        Each schedule entry holds until the next one, so with a fixed
        period the interval count is proportional to time.
        """
        rows = self._sched_rows(node_id, proc_id)
        if rows.size == 0:
            raise ExperimentError(
                f"no schedule entries for node {node_id} proc {proc_id}"
            )
        f = self._sched.column("eps_freq_hz" if desired else "freq_hz")[rows]
        values, counts = np.unique(f, return_counts=True)
        total = rows.size
        return {v: c / total
                for v, c in zip(values.tolist(), counts.tolist())}

    # -- predictor accuracy (Table 2) ------------------------------------------------------

    def prediction_pairs(self, node_id: int, proc_id: int
                         ) -> list[tuple[float, float, float]]:
        """(decision time, predicted IPC, measured IPC over the following
        scheduling interval) triples.

        The measured value aggregates all counter samples between this
        scheduling decision and the next, matching how the prototype's
        post-processing scored the predictor.
        """
        schedules = [e for e in self.schedules_of(node_id, proc_id)
                     if e.predicted_ipc is not None]
        samples = self.samples_of(node_id, proc_id)
        pairs: list[tuple[float, float, float]] = []
        for i, dec in enumerate(schedules):
            t_end = (schedules[i + 1].time_s if i + 1 < len(schedules)
                     else float("inf"))
            # Left-to-right adds from 0, as in the daemon's window
            # aggregate (Python 3.12's ``sum`` compensates).
            instr = cycles = 0
            for s in samples:
                if dec.time_s < s.time_s <= t_end:
                    instr += s.sample.instructions
                    cycles += s.sample.cycles
            if cycles > 0 and instr > 0:
                pairs.append((dec.time_s, dec.predicted_ipc, instr / cycles))
        return pairs

    def ipc_deviation(self, node_id: int, proc_id: int, *,
                      skip_head: int = 0, skip_tail: int = 0) -> float:
        """Mean absolute predicted-vs-measured IPC deviation.

        ``skip_head``/``skip_tail`` drop decisions at the run's edges —
        Table 2's ``CPU3*`` column excludes the benchmark's initialisation
        and termination windows this way.
        """
        pairs = self.prediction_pairs(node_id, proc_id)
        if skip_tail:
            pairs = pairs[:-skip_tail]
        if skip_head:
            pairs = pairs[skip_head:]
        if not pairs:
            raise ExperimentError("no prediction pairs to score")
        return float(np.mean([abs(p - m) for _, p, m in pairs]))
