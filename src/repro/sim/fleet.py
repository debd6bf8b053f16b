"""Fleet-wide columnar advance: one numpy pass over every core in the cluster.

The scalar reference (``SMPMachine.advance`` -> ``SimulatedCore.advance``
-> ``_advance_slice``) costs one Python dispatch per machine and one per
slice: the 1024-node chaos smoke would make ~3M ``machine.advance`` calls
per simulated second, and the per-call overhead — not the arithmetic —
dominates.  This module inverts the ownership model for the duration of a
run: eligible machines become *views* over a :class:`FleetState`, a
structure of arrays holding one lane per core (frequency, throughput,
phase cursor, counter totals, residency, energy accumulators), and one
event-free span advances every lane with ~20 numpy operations regardless
of cluster size.  It is the simulator's only fast path: every span of
every machine goes through :func:`advance_machines`, and whatever cannot
live in columns runs the scalar reference.

The contract is **bit-for-bit equality** with the scalar path.  The
per-span update exploits these float identities:

* every non-crossing lane advances by the same span length, so one vector
  multiply/add per column reproduces the scalar slice exactly (elementwise
  float64 numpy ops equal the scalar IEEE ops);
* lanes that execute nothing carry zero throughput/frequency columns, and
  ``x + 0.0`` is a bitwise no-op for the non-negative totals involved, so
  masked lanes ride along in the same vector adds untouched;
* the few lanes that *do* hit a boundary this span (phase crossing, float
  corner) are found with one vectorized predicate — the same comparison the
  scalar loop makes — and re-run through :meth:`FleetState._advance_busy_lane`,
  ``_advance_slice`` with the span-stable conditions hoisted out, against
  their columns;
* sequential ``x += inc`` runs (idle chunks, energy per observation chunk)
  collapse into one ``cumsum``, which accumulates left-to-right.

Residency matrix (what lives in columns).  A resident lane is one of two
kinds: a *busy* lane runs the plain-phase job at the head of its core's
queue, and a *hot-idle* lane spins the idle loop of an empty queue (the
p630 idles hot, Section 7.1).

* **Jittered busy cores** are resident: each span draws one value per lane
  through the core's stream-aligned ``_jitter_buf`` (block refill-64 on a
  sigma mismatch at span start, refill-256 on exhaustion; block
  ``standard_normal(n)`` equals ``n`` scalar draws), folds it into that
  lane's throughput, and lets the vector pass carry it — draw order is
  identical to the scalar path.
* **Supply-banked machines** are resident.  A span that is one
  observation chunk for every resident banked machine (the common case:
  spans no longer than the 10 ms interval) is an unbanked span plus one
  :meth:`SupplyBank.observe` at its end, so their lanes ride the
  whole-fleet vector pass like any other, requests and run queues
  included, and each machine then gets its planned observe.  A longer
  span keeps them out of the pass and chunks them at the observation
  interval, replaying :meth:`SupplyBank.plan_constant_span` /
  :meth:`SupplyBank.observe` at the boundaries where the bank's state
  changes.  Either way the demand is priced from the lanes' power column
  at the span start, while the scalar observes it after the cores ran.
  The two agree while no resident banked lane's draw changes inside the
  span, and a completion leaves a hot-idling core's draw as it was; so
  ONCE work on a banked core that halts when idle parks its machine at
  any span length.  A walked span also parks a banked machine holding
  ONCE work or a queue: the walk replays each lane across all of its
  chunks, where a completion or a rotation would hand the lane off
  mid-walk (parking, below).  A span in which a *raising* bank plans a
  cascade delegates the whole fleet for that span, preserving the
  scalar loop's partial advance and exception order; so does a span
  with a raising bank on a parked or delegated machine, whenever the
  list holds another machine.
* **Enabled telemetry** is resident: phase-transition events are emitted
  at crossings with the scalar payload.  Per-machine event order matches
  the scalar path; only the interleaving of events *across* machines
  within one span is unspecified.
* **Run queues** are resident whatever their length and loop modes
  (serving requests are ONCE jobs), on a banked machine too in any span
  of one observation chunk: the lane runs the job at the head of the
  queue, and the dispatcher's quantum runs down in one more column.  A
  request's completion and the quantum's expiry are columnar crossings.
  The vector predicate that finds phase boundaries also finds the last
  phase's end and ``Dispatcher.account_run``'s expiry threshold; the
  crossing replay completes the job (or rotates the queue), writes the
  lane back to its objects, and hands the rest of the span to the scalar
  slice loop, which runs the next job or the idle loop.
  ``started_at_s`` / ``completed_at_s`` stamps, event payloads, counters,
  and RNG draw order are all identical to the scalar path.  The lane
  re-derives at the next span start (the new head's columns, fresh
  power), exactly when the scalar re-reads ``core_power_w``.

The fleet holds lanes and ledger accounts for every machine it can: all
but subclassed machines or components, desynchronised clocks and supply
banks *shared* between machines, which are delegates for the fleet's
lifetime.  A held machine with a core the columns cannot run is *parked*
alone.  The causes are an offline core, an idle core that halts
(``IdleStyle.HALT``), daemon-time debt, a pending frequency settle, a
``Job`` subclass or a non-plain head phase, ONCE work on a banked core
that halts when idle, ONCE work or two or more jobs on a core of a
banked machine in a walked span (it parks for that span only), a
subclassed core hook or component (a replaced counter bank included),
active idle listeners, and a negative power draw.  Its lanes and
accounts flush to its objects and carry no-op columns, and it advances
through ``machine.advance`` (the bit-equal reference) until a span start
finds the blocker cleared, when only its lanes re-derive and only its
accounts reload.  No other machine's lanes move, and the fleet is built
once per run unless a span falls back whole (a float corner, a raising
cascade), :func:`reset_fleet` runs, or a parked machine's structure
changed by the time it is admitted.
:func:`advance_machines` returns each span's residency tally,
delegations broken down per reason label; the
:class:`~repro.sim.driver.Simulation` sums it over its run and exports it
as ``sim_fleet_advances_total`` / ``sim_fleet_fallbacks_total``.

View synchronisation: while resident, a core's running totals live in
columns and the underlying objects lag.  Mutators routed through the core
(``set_frequency``, ``add_job``, ``steal_time``, ``offline``,
``power_scale``, ``config`` replacement, ``steal`` via migrate,
idle-detector subscription) bump :meth:`FleetState.invalidate_core`, and
:meth:`CounterBank.snapshot` (how a :class:`~repro.sim.counters.CounterReader`
observes counters) flushes through an installed hook.  Cluster agents read
counters through :func:`gather_counters` instead: one ``(7, k)`` gather
from the counter columns per sampling tick, with no flush, so banks lag
until the next flush or snapshot.  Residency dicts, job progress, counter
banks and energy ledgers are synchronised by :func:`flush_machines` (the
driver does this when ``run_until`` returns) or by any
``advance_machines(..., flush=True)`` call.  Structural mutations with no
hook (attaching a supply bank mid-run, swapping a meter/ledger/dispatcher
instance) require :func:`reset_fleet` first on a resident machine; a
parked machine's are found when it is admitted.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..power.energy import EnergyAccumulator, EnergyLedger
from ..power.supply import SupplyBank
from ..telemetry import EVENT_PHASE_TRANSITION, get_telemetry
from ..units import check_non_negative
from ..workloads.job import Job, JobState, LoopMode
from ..workloads.phase import Phase
from .core import _MIN_SLICE_S, SimulatedCore
from .counters import CounterBank
from .idle import HOT_IDLE_PHASE, IdleDetector, IdleStyle
from .machine import (SUPPLY_OBSERVATION_INTERVAL_S, SMPMachine,
                      observation_bounds)
from .os_sched import Dispatcher
from .powermeter import PowerMeter
from .throttle import ThrottleActuator

__all__ = ["FleetState", "advance_machines", "flush_machines",
           "reset_fleet", "gather_counters"]

# Per-core execution modes over one event-free span.
_IDLE = 0       # closed form: one stationary hot-idle slice per chunk
_BUSY = 1       # column lane: plain-phase head job, constant frequency
_HANDOFF = 2    # object-authoritative for the rest of a span (``_handoff``)
_PARKED = 3     # object-authoritative: its machine advances scalar
# Flushes skip the object-authoritative kinds, _HANDOFF and up.

#: Hooks whose override forces the scalar path.
_CORE_HOOKS = ("advance", "_advance_slice", "_advance_idle",
               "_advance_overhead", "_jitter_scale", "_record_residency")


def _hooks_intact(core: SimulatedCore) -> bool:
    t = type(core)
    if t is SimulatedCore:
        return True
    return all(getattr(t, h) is getattr(SimulatedCore, h) for h in _CORE_HOOKS)


def _phases_plain(job: Job) -> bool:
    ok = job.__dict__.get("_phases_plain")
    if ok is None:
        ok = all(type(p) is Phase for p in job.phases)
        job.__dict__["_phases_plain"] = ok
    return ok


def _detector_passive(det) -> bool:
    return type(det) is IdleDetector and det.passive


def _acc(initial: float, increments: np.ndarray) -> float:
    """Sequential ``x += inc`` over ``increments`` starting from ``initial``
    (``cumsum`` accumulates left-to-right, so this is bitwise the loop)."""
    buf = np.empty(increments.size + 1)
    buf[0] = initial
    buf[1:] = increments
    return float(buf.cumsum()[-1])


def _classify_lane(core: SimulatedCore, t0: float, banked: bool,
                   walked: bool) -> int | str:
    """Execution mode of one core over an event-free span.

    Returns ``_IDLE`` (the hot idle loop) or ``_BUSY``, or the fallback
    label its machine parks under: "offline" for a powered-off core,
    "halted" for an idle core that halts (``IdleStyle.HALT``), "subclass"
    for an overridden hook or component (a replaced counter bank
    included), "transient" for a state that drains away:

    * a ``Job`` subclass in the queue, or a head job with a non-plain
      phase (a ``Phase`` subclass);
    * daemon-time debt (Figure 4's overhead, drained at the front of the
      next ``core.advance``);
    * pending frequency settling, observed (and passively settled) at
      ``t0`` first, exactly as the scalar path's first slice observes it.

    A run queue whose head is a plain-phase :class:`Job` is ``_BUSY`` at
    any length, ONCE and LOOP work alike: the dispatcher's quantum expiry
    and a request's completion are columnar crossings of
    :meth:`FleetState._advance_busy_lane`.  Two states of a core of a
    ``banked`` machine are "transient" too.  When the span walks its
    observation chunks (``walked``: the span is longer than one chunk),
    ONCE work or a queue of two or more jobs is: the walk replays each
    lane across all of its chunks, where a completion or a rotation
    would hand the lane off mid-walk.  At any span length, ONCE work on
    a core that halts when idle is: its completion drops the core's draw
    before ``SMPMachine._advance_to`` observes the bank, while the
    columns price the demand at the span start.
    """
    if not _hooks_intact(core):
        return "subclass"
    if core.offline:
        return "offline"
    act = core.actuator
    if (type(act) is not ThrottleActuator
            or not _detector_passive(core.idle_detector)
            or type(core.dispatcher) is not Dispatcher):
        return "subclass"
    queue = core.dispatcher._queue
    if any(type(job) is not Job for job in queue):
        return "transient"
    if act.pending and not banked:
        act.effective_hz(t0)
    if (act.pending or core._overhead_debt_s > _MIN_SLICE_S
            or (banked and (walked or core.config.idle_style is IdleStyle.HALT)
                and any(job.loop is not LoopMode.LOOP for job in queue))):
        return "transient"
    if type(core.counters) is not CounterBank:
        return "subclass"
    if not queue:
        return "halted" if core.config.idle_style is IdleStyle.HALT else _IDLE
    if _phases_plain(queue[0]) and (len(queue) == 1 or not walked):
        return _BUSY
    return "transient"


class FleetState:
    """Structure-of-arrays state for every core of the machines it holds.

    Lanes are float64 columns indexed by core; per-lane Python metadata
    (kind, job, phase table, pending residency) lives in parallel lists.
    Each held machine owns a contiguous run of lanes and of ledger
    accounts, and is either *resident* (advanced through the columns) or
    *parked* (its objects are authoritative and it advances through
    ``machine.advance`` until its blocker clears).  Machines the columns
    cannot hold at all are *delegates*: they advance through
    ``machine.advance`` for the fleet's lifetime.  Both are bit-equal by
    construction.
    """

    def __init__(self, machines: list) -> None:
        self.machines = machines
        self._valid = True
        self._dirty: set[SimulatedCore] = set()
        #: Held machines advancing through the columns, in machine order.
        self.resident: list[SMPMachine] = []
        self.delegates: list = []
        self.delegate_reasons: dict[str, int] = {}
        #: Held machines advancing through ``machine.advance``, in machine
        #: order, each with the fallback label that keeps it parked.
        self._parked: dict[SMPMachine, str] = {}
        #: Why the last ``advance`` returned False ("corner" or "bank").
        self._span_blocker = "corner"

        # Steal machines already resident in another fleet (overlapping
        # machine lists): the old fleet flushes and dies, objects become
        # authoritative again, and this build reads consistent state.
        for m in machines:
            old = getattr(m, "_fleet_ref", None)
            if old is not None and old is not self and old._valid:
                old.detach()

        # A supply bank shared between machines sees interleaved per-chunk
        # observations in the scalar path that the per-machine banked walk
        # cannot replay; those machines stay delegates.
        seen: dict[int, int] = {}
        for m in machines:
            b = getattr(m, "supply_bank", None)
            if b is not None:
                seen[id(b)] = seen.get(id(b), 0) + 1
        self._shared_banks = {bid for bid, k in seen.items() if k > 1}

        # One lane per core and one energy account per ledger account of
        # every held machine, contiguous per machine.  Accounts materialise
        # in the order the scalar first chunk would create them.
        self.cores: list[SimulatedCore] = []
        self.e_accs: list[EnergyAccumulator] = []
        self.elane: list[int] = []
        #: Per held machine: (machine, lane_lo, lane_hi, account_lo,
        #: account_hi).
        self._slots: list[tuple[SMPMachine, int, int, int, int]] = []
        self._slot_of: dict[SMPMachine, tuple] = {}
        self._lane_slot: list[tuple] = []
        now = None
        for m in machines:
            label = self._hold_blocker(m, now)
            if label is not None:
                self.delegates.append(m)
                self.delegate_reasons[label] = \
                    self.delegate_reasons.get(label, 0) + 1
                continue
            if now is None:
                now = m._now_s
            lo, e_lo = len(self.cores), len(self.e_accs)
            ledger = m.ledger
            for c in m.cores:
                ledger.account(f"core{c.core_id}")
            ledger.account("non_cpu")
            index = {name: k for k, name in enumerate(ledger.accounts, e_lo)}
            self.e_accs.extend(ledger.accounts.values())
            self.cores.extend(m.cores)
            self.elane.extend(index[f"core{c.core_id}"] for c in m.cores)
            slot = (m, lo, len(self.cores), e_lo, len(self.e_accs))
            self._slots.append(slot)
            self._slot_of[m] = slot
            self._lane_slot.extend([slot] * len(m.cores))
        self.now = now if now is not None else machines[0]._now_s
        n = self.n = len(self.cores)
        self._lane_of = {c: i for i, c in enumerate(self.cores)}
        #: :func:`gather_counters` lane indexes, by id of the core list.
        self._gathers: dict[int, tuple] = {}

        self.freq = np.zeros(n)
        self.thr = np.zeros(n)
        self.r2 = np.zeros(n)
        self.r3 = np.zeros(n)
        self.rm = np.zeros(n)
        self.rl1 = np.zeros(n)
        self.pinstr = np.full(n, np.inf)
        self.ptol = np.full(n, np.inf)
        self.prog = np.zeros(n)
        self.retired = np.zeros(n)
        self.cur_res = np.zeros(n)
        self.ft = np.zeros(n)
        #: Dispatcher quantum left for lanes queueing two or more jobs at
        #: setup (``_multi``), +inf for every other lane.
        self.qleft = np.full(n, np.inf)
        self.busy = np.zeros(n, dtype=bool)
        # Counter totals: instructions, cycles, n_l2, n_l3, n_mem,
        # l1_stall_cycles, halted_cycles (CounterBank field order).  No
        # resident lane halts, so its halted_cycles only carries the bank's
        # total to :func:`gather_counters`.
        self.cnt = np.zeros((7, n))
        k = len(self.e_accs)
        self.e_pow = np.zeros(k)
        self.e_last = np.zeros(k)
        self.e_energy = np.zeros(k)

        self.kind = [_PARKED] * n
        self.jobs: list = [None] * n
        self.pdata: list = [None] * n
        self.pidx = [0] * n
        self.cur_name: list[str | None] = [None] * n
        self.ft_key = [0.0] * n
        self.pending: list[dict | None] = [None] * n
        self._bank_hooks: list = [None] * n
        #: Lanes a crossing handed to their objects for the rest of the
        #: span (:meth:`_handoff`); each re-derives at the next span start.
        self._handed_off: set[int] = set()
        #: Busy lanes whose queue held two or more jobs at setup: the
        #: dispatcher's quantum runs down in ``qleft``.
        self._multi: set[int] = set()
        #: Busy lanes with latency_jitter_sigma > 0: one RNG draw per span
        #: through the core's stream-aligned buffer (a banked lane the
        #: chunk walk runs draws per slice there instead).
        self._jitter: set[int] = set()

        # A span that chunk-walks the banked machines runs the vector pass
        # and the energy update over the unbanked lanes and accounts only.
        self._lane_banked = np.zeros(n, dtype=bool)
        emask = np.ones(k, dtype=bool)
        for m, lo, hi, e_lo, e_hi in self._slots:
            if m.supply_bank is not None:
                self._lane_banked[lo:hi] = True
                emask[e_lo:e_hi] = False
        self._ub_idx = np.flatnonzero(~self._lane_banked)
        self._ub_eidx = np.flatnonzero(emask)

        #: Whether the current span walks the banked machines' observation
        #: chunks (set by :meth:`prepare`).  A fleet builds as for a
        #: one-chunk span, and ``prepare`` parks what a walk cannot run.
        self._walked = False
        for slot in self._slots:
            slot[0]._fleet_ref = self
            label = self._machine_blocker(slot[0]) or self._admit(slot)
            if label is not None:
                self._parked[slot[0]] = label
        self._relist()

    # -- eligibility ---------------------------------------------------------------

    def _hold_blocker(self, m, now) -> str | None:
        """None when the columns can hold ``m`` (give it lanes and
        accounts), else the fallback label it delegates under.  ``now`` is
        the fleet clock (None before the first held machine sets it)."""
        if type(m) is not SMPMachine:
            return "subclass"
        bank = m.supply_bank
        if bank is not None and (type(bank) is not SupplyBank
                                 or id(bank) in self._shared_banks):
            return "bank"
        if (type(m.ledger) is not EnergyLedger
                or type(m.meter) is not PowerMeter
                or any(type(a) is not EnergyAccumulator
                       for a in m.ledger.accounts.values())):
            return "subclass"
        if now is not None and m._now_s != now:
            return "desync"
        return None

    def _machine_blocker(self, m: SMPMachine) -> str | None:
        """None when every core of held machine ``m`` can live in columns
        now, else the fallback label that keeps it parked."""
        banked = m.supply_bank is not None
        walked = banked and self._walked
        for c in m.cores:
            cls = _classify_lane(c, self.now, banked, walked)
            if type(cls) is str:
                return cls
        return None

    def _restructured(self, slot) -> bool:
        """Whether a parked machine changed what its slot was allocated
        for: a structural blocker, a supply bank attached or removed, or
        another set of ledger accounts.  Found at admission; the caller
        then builds a new fleet."""
        m, lo, _, e_lo, e_hi = slot
        accs = m.ledger.accounts
        return (self._hold_blocker(m, self.now) is not None
                or (m.supply_bank is not None) != self._lane_banked[lo]
                or len(accs) != e_hi - e_lo
                or any(a is not b for a, b in
                       zip(accs.values(), self.e_accs[e_lo:e_hi])))

    # -- parking -----------------------------------------------------------------------

    def _admit(self, slot) -> str | None:
        """Load a parked machine's accounts and derive its lanes at the
        fleet clock.  Returns None, or the fallback label of a lane the
        columns cannot run (the machine is parked again)."""
        m, lo, hi, e_lo, e_hi = slot
        non_cpu = m.meter.non_cpu_power_w
        for k, (name, acc) in enumerate(m.ledger.accounts.items(), e_lo):
            self.e_energy[k] = acc.energy_j
            self.e_last[k] = acc.last_time_s
            self.e_pow[k] = non_cpu if name == "non_cpu" else 0.0
        for i in range(lo, hi):
            label = self._setup_lane(i, self.now)
            if label is not None:
                self._park(slot)
                return label
        return None

    def _park(self, slot) -> None:
        """Hand one machine back to its objects: flush its lanes and
        accounts, remove their bank hooks and zero their columns, so the
        vector pass carries them as no-ops."""
        _, lo, hi, e_lo, e_hi = slot
        for i in range(lo, hi):
            self._flush_lane(i)
            self._reset_lane(i)
            self.kind[i] = _PARKED
            self._remove_bank_hook(i)
        self._flush_accounts(range(e_lo, e_hi))
        self.cnt[:, lo:hi] = 0.0
        self.e_pow[e_lo:e_hi] = 0.0

    def _relist(self) -> None:
        """Re-derive the per-machine lists after machines parked or were
        admitted."""
        parked = self._parked
        live = [s for s in self._slots if s[0] not in parked]
        self._parked = {s[0]: parked[s[0]] for s in self._slots
                        if s[0] in parked}
        self.resident = [s[0] for s in live]
        self._banked = [s for s in live if self._lane_banked[s[1]]]
        # One slot past the last lane absorbs the -1 that
        # :func:`gather_counters` gives cores outside this fleet.
        self._parked_mask = np.zeros(self.n + 1, dtype=bool)
        for s in self._slots:
            if s[0] in parked:
                self._parked_mask[s[1]:s[2]] = True
        self._live_accounts = ([k for s in live for k in range(s[3], s[4])]
                               if parked else range(len(self.e_accs)))
        reasons = dict(self.delegate_reasons)
        for label in parked.values():
            reasons[label] = reasons.get(label, 0) + 1
        #: This span's delegations per fallback label (None: none).
        self.fallbacks = reasons or None

    # -- lane lifecycle --------------------------------------------------------------

    def invalidate_core(self, core: SimulatedCore) -> None:
        """Mark one core's lane stale (re-derived at the next span)."""
        self._dirty.add(core)

    def _install_bank_hook(self, i: int) -> None:
        bank = self.cores[i].counters
        hook = self._bank_hooks[i]
        if hook is None:
            def hook(fleet=self, lane=i):
                if fleet._valid:
                    fleet._flush_counters(lane)
            self._bank_hooks[i] = hook
        bank._fleet_flush = hook

    def _remove_bank_hook(self, i: int) -> None:
        hook = self._bank_hooks[i]
        if hook is None:
            return
        d = getattr(self.cores[i].counters, "__dict__", None)
        if d is not None and d.get("_fleet_flush") is hook:
            del d["_fleet_flush"]

    def _reset_lane(self, i: int) -> None:
        """Empty lane ``i``: no set memberships, no-op columns."""
        self._handed_off.discard(i)
        self._jitter.discard(i)
        if i in self._multi:
            self._multi.discard(i)
            self.qleft[i] = np.inf
        self.busy[i] = False
        self.jobs[i] = None
        self.pdata[i] = None
        pend = self.pending[i]
        if pend:
            pend.clear()
        self.freq[i] = 0.0
        self.thr[i] = 0.0
        self.r2[i] = self.r3[i] = self.rm[i] = self.rl1[i] = 0.0
        self.pinstr[i] = np.inf
        self.ptol[i] = np.inf
        self.prog[i] = 0.0
        self.retired[i] = 0.0
        self.cur_res[i] = 0.0
        self.ft[i] = 0.0

    def _setup_lane(self, i: int, t0: float) -> str | None:
        """Derive lane ``i`` from its core's objects at ``t0``.  Returns
        None, or the fallback label of a core the columns cannot run (the
        caller parks its machine)."""
        core = self.cores[i]
        old = core._fleet
        if old is not None and old is not self and old._valid:
            old.detach()
        banked = bool(self._lane_banked[i])
        mode = _classify_lane(core, t0, banked, banked and self._walked)
        if type(mode) is str:
            return mode
        self._reset_lane(i)
        self.kind[i] = mode

        freq = core.actuator.effective_hz(t0)
        if mode == _IDLE:
            core.idle_detector.note_queue_length(0)
            phase = HOT_IDLE_PHASE
            self.thr[i] = phase.throughput(core.latencies, freq)
            self.freq[i] = freq
            self.r2[i] = phase.n_l2_per_instr
            self.r3[i] = phase.n_l3_per_instr
            self.rm[i] = phase.n_mem_per_instr
            self.rl1[i] = phase.l1_stall_cycles_per_instr
            self.cur_name[i] = phase.name
        else:  # _BUSY
            disp = core.dispatcher
            job = disp._queue[0]
            core.idle_detector.note_queue_length(len(disp._queue))
            job.mark_started(t0)
            lat = core.latencies
            pdata = []
            for p in job.phases:
                core_cpi = (1.0 / p.alpha
                            + p.l1_stall_cycles_per_instr
                            + p.unmodeled_stall_cycles_per_instr)
                mem_time = (p.n_l2_per_instr * lat.t_l2_s
                            + p.n_l3_per_instr * lat.t_l3_s
                            + p.n_mem_per_instr * lat.t_mem_s)
                pdata.append((p.name, p.instructions, core_cpi, mem_time,
                              p.n_l2_per_instr, p.n_l3_per_instr,
                              p.n_mem_per_instr,
                              p.l1_stall_cycles_per_instr))
            pidx = job.phase_index
            name, pinstr, ccpi, mem, r2, r3, rm, rl1 = pdata[pidx]
            self.busy[i] = True
            self.jobs[i] = job
            self.pdata[i] = pdata
            self.pidx[i] = pidx
            self.freq[i] = freq
            # A plain Phase at a positive frequency always has a
            # positive throughput (Phase validates its rates).
            self.thr[i] = freq / (ccpi + mem * freq)
            self.r2[i] = r2
            self.r3[i] = r3
            self.rm[i] = rm
            self.rl1[i] = rl1
            self.pinstr[i] = pinstr
            self.ptol[i] = pinstr * (1.0 - 1e-12)
            self.prog[i] = job.phase_progress
            self.retired[i] = job.instructions_retired
            self.cur_name[i] = name
            if self.pending[i] is None:
                self.pending[i] = {}
            if len(disp._queue) > 1:
                self._multi.add(i)
                self.qleft[i] = disp._quantum_left_s
            if core.config.latency_jitter_sigma > 0.0:
                self._jitter.add(i)
        self.ft_key[i] = freq
        self.cur_res[i] = core.phase_time_s.get(self.cur_name[i], 0.0)
        self.ft[i] = core.freq_time_s.get(freq, 0.0)
        self._load_counters(i)
        self._install_bank_hook(i)

        core._fleet = self
        core.idle_detector._fleet_invalidate = core._fleet_invalidate
        pw = self._lane_slot[i][0].meter.core_power_w(core, t0)
        if pw < 0.0:
            return "power"  # the scalar ledger raises; let it
        self.e_pow[self.elane[i]] = pw
        return None

    def _load_counters(self, i: int) -> None:
        b = self.cores[i].counters
        cnt = self.cnt
        cnt[0, i] = b.instructions
        cnt[1, i] = b.cycles
        cnt[2, i] = b.n_l2
        cnt[3, i] = b.n_l3
        cnt[4, i] = b.n_mem
        cnt[5, i] = b.l1_stall_cycles
        cnt[6, i] = b.halted_cycles

    def _flush_counters(self, i: int) -> None:
        b = self.cores[i].counters
        cnt = self.cnt
        b.instructions = float(cnt[0, i])
        b.cycles = float(cnt[1, i])
        b.n_l2 = float(cnt[2, i])
        b.n_l3 = float(cnt[3, i])
        b.n_mem = float(cnt[4, i])
        b.l1_stall_cycles = float(cnt[5, i])
        b.halted_cycles = float(cnt[6, i])

    def _flush_lane(self, i: int) -> None:
        kind = self.kind[i]
        if kind >= _HANDOFF:
            return
        self._flush_counters(i)
        core = self.cores[i]
        pt = core.phase_time_s
        pend = self.pending[i]
        if pend:
            pt.update(pend)
            pend.clear()
        # A residency key exists once a slice ran in it, exactly like the
        # scalar path: a busy lane's current phase may be one a crossing
        # just entered, and an idle lane's one no span has reached yet.
        name = self.cur_name[i]
        cur = float(self.cur_res[i])
        if cur != 0.0 or name in pt:
            pt[name] = cur
        key = self.ft_key[i]
        ftd = core.freq_time_s
        ftv = float(self.ft[i])
        if ftv != 0.0 or key in ftd:
            ftd[key] = ftv
        if kind == _BUSY:
            job = self.jobs[i]
            job.phase_progress = float(self.prog[i])
            job.instructions_retired = float(self.retired[i])
            if i in self._multi:
                # A lane that set up with a sole job leaves the quantum to
                # the dispatcher, even if an arrival has grown the queue
                # since; this one writes it back only while its job still
                # heads the queue, since removing the head resets it.
                disp = core.dispatcher
                if disp._queue and disp._queue[0] is job:
                    disp._quantum_left_s = float(self.qleft[i])

    def _flush_accounts(self, accounts) -> None:
        e = self.e_energy
        last = self.e_last
        for k in accounts:
            acc = self.e_accs[k]
            acc.energy_j = float(e[k])
            acc.last_time_s = float(last[k])

    def flush(self) -> None:
        """Write every resident lane and account back to its objects
        (idempotent; the columns stay authoritative until :meth:`detach`)."""
        for i in range(self.n):
            self._flush_lane(i)
        self._flush_accounts(self._live_accounts)

    def detach(self) -> None:
        """Flush and dissolve: objects become authoritative again."""
        if not self._valid:
            return
        self.flush()
        self._valid = False
        for i, core in enumerate(self.cores):
            self._remove_bank_hook(i)
            if core._fleet is self:
                core._fleet = None
                core.idle_detector._fleet_invalidate = None
        for m, *_ in self._slots:
            if getattr(m, "_fleet_ref", None) is self:
                m._fleet_ref = None

    # -- per-span processing -----------------------------------------------------------

    def prepare(self, dt: float) -> bool:
        """Bring the columns to the start of a span of ``dt``: admit each
        parked machine whose blocker cleared, re-derive stale lanes, and
        park each machine with a lane the columns cannot run over this
        span.  False means a parked machine changed structure: build a
        new fleet."""
        t0 = self.now
        # Only banked lanes walk (``_ub_idx`` holds the unbanked ones).
        self._walked = walked = (
            dt > SUPPLY_OBSERVATION_INTERVAL_S and self._ub_idx.size < self.n
            and len(observation_bounds(t0, t0 + dt, dt)) > 1)
        lanes = ()
        kind = self.kind
        if self._dirty:
            lanes = [i for i in map(self._lane_of.get, self._dirty)
                     if i is not None and kind[i] != _PARKED]
            self._dirty = set()
            # Flush every stale lane before deriving any: a job migrated
            # off one lane's head is read by the lane it joined.
            for i in lanes:
                self._flush_lane(i)
        changed = False
        for m in list(self._parked) if self._parked else ():
            label = self._machine_blocker(m)
            if label is None:
                slot = self._slot_of[m]
                if self._restructured(slot):
                    return False
                label = self._admit(slot)
            if label is None:
                del self._parked[m]
                changed = True
            elif label != self._parked[m]:
                self._parked[m] = label
                changed = True
        for i in lanes:
            if kind[i] == _PARKED:
                continue  # its machine parked earlier in this loop
            label = self._setup_lane(i, t0)
            if label is not None:
                slot = self._lane_slot[i]
                self._park(slot)
                self._parked[slot[0]] = label
                changed = True
        if walked:
            # A banked machine admitted over a one-chunk span may hold
            # what a walk cannot run (a queue, ONCE work): classify it
            # again for this span.
            for slot in self._banked:
                m = slot[0]
                label = None if m in self._parked else self._machine_blocker(m)
                if label is not None:
                    self._park(slot)
                    self._parked[m] = label
                    changed = True
        if changed:
            self._relist()
        return True

    def advance(self, dt: float) -> bool:
        """One event-free span over all resident lanes.  Returns False
        (caller takes the scalar path) on the float corners where the
        scalar loop's span arithmetic would not collapse to one slice, or
        when a supply-bank cascade could raise where the columns would
        not stop at it: a raising bank plans one in a resident banked
        machine's span, or sits on a parked or delegated machine
        (``_span_blocker`` says which)."""
        if len(self.machines) > 1 and any(
                getattr(getattr(m, "supply_bank", None), "raise_on_cascade",
                        False) for m in (*self.delegates, *self._parked)):
            # Such a machine advances after the columns, but the scalar
            # loop stops at its raise before the machines listed after it.
            self._span_blocker = "bank"
            return False
        t0 = self.now
        e2 = t0 + dt
        eff = e2 - t0
        plans = grid = None
        if self.resident:
            se = t0 + eff
            limit = se - t0
            if limit != eff or se - (t0 + limit) > _MIN_SLICE_S:
                self._span_blocker = "corner"
                return False
            if self._banked:
                planned = self._plan_banked(t0, e2, dt)
                if planned is None:
                    return False  # _span_blocker set by _plan_banked
                plans, grid = planned
            # Banked lanes ride the whole-fleet pass unless a span longer
            # than an observation chunk walks them (``grid``).
            if eff > _MIN_SLICE_S:
                jitter = self._jitter
                if grid is not None:
                    banked = self._lane_banked
                    jitter = [i for i in jitter if not banked[i]]
                if jitter:
                    self._draw_jitter(jitter)
                if grid is None:
                    self._advance_span_all(t0, eff)
                elif self._ub_idx.size:
                    self._advance_span_sub(t0, eff, self._ub_idx)
            if grid is not None:
                self._advance_banked(plans, grid)
        if self.e_accs:
            if grid is None:
                self.e_energy += self.e_pow * (e2 - self.e_last)
                self.e_last.fill(e2)
            else:
                eidx = self._ub_eidx
                self.e_energy[eidx] += self.e_pow[eidx] * \
                    (e2 - self.e_last[eidx])
                self.e_last[eidx] = e2
        self.now = e2
        for m in self.resident:
            m._now_s = e2
        if grid is None and plans:
            for slot, demand, actions in plans:
                if actions:  # [0]: the one boundary, at the span end
                    slot[0].supply_bank.observe(e2, demand)
        return True

    def _advance_span_all(self, t0: float, eff: float) -> None:
        """The whole-fleet vector pass."""
        thr = self.thr
        prog = self.prog
        with np.errstate(divide="ignore", invalid="ignore"):
            ttpe = (self.pinstr - prog) / thr
        instr = thr * eff
        prog2 = prog + instr
        bad = ttpe <= eff
        bad |= prog2 >= self.ptol
        bad |= (instr <= 0.0) & self.busy
        multi = self._multi
        if multi:
            # Dispatcher.account_run's own subtraction and threshold.
            q2 = self.qleft - eff
            bad |= q2 <= 1e-12
        nbad = np.count_nonzero(bad)
        if nbad:
            keep = ~bad
            instr = np.where(keep, instr, 0.0)
            add = np.where(keep, eff, 0.0)
            self.prog = np.where(keep, prog2, prog)
        else:
            add = eff
            self.prog = prog2
        if multi:
            self.qleft = np.where(keep, q2, self.qleft) if nbad else q2
        cnt = self.cnt
        cnt[0] += instr
        cnt[1] += self.freq * add
        cnt[2] += self.r2 * instr
        cnt[3] += self.r3 * instr
        cnt[4] += self.rm * instr
        cnt[5] += self.rl1 * instr
        self.cur_res += add
        self.ft += add
        self.retired += instr
        if nbad:
            jitter = self._jitter
            for i in np.nonzero(bad)[0]:
                i = int(i)
                first = float(self.thr[i]) if i in jitter else None
                self._advance_busy_lane(i, ((t0, eff),), first_thr=first)

    def _advance_span_sub(self, t0: float, eff: float,
                          ub: np.ndarray) -> None:
        """The vector pass gathered over unbanked lanes only — the same
        elementwise IEEE ops as :meth:`_advance_span_all` on the gathered
        values, so per-lane results are bit-identical."""
        thr = self.thr[ub]
        prog = self.prog[ub]
        with np.errstate(divide="ignore", invalid="ignore"):
            ttpe = (self.pinstr[ub] - prog) / thr
        instr = thr * eff
        prog2 = prog + instr
        bad = ttpe <= eff
        bad |= prog2 >= self.ptol[ub]
        bad |= (instr <= 0.0) & self.busy[ub]
        multi = self._multi
        if multi:
            qleft = self.qleft[ub]
            q2 = qleft - eff
            bad |= q2 <= 1e-12
        nbad = np.count_nonzero(bad)
        if nbad:
            keep = ~bad
            instr = np.where(keep, instr, 0.0)
            add = np.where(keep, eff, 0.0)
            self.prog[ub] = np.where(keep, prog2, prog)
        else:
            add = eff
            self.prog[ub] = prog2
        if multi:
            self.qleft[ub] = np.where(keep, q2, qleft) if nbad else q2
        cnt = self.cnt
        cnt[0, ub] += instr
        cnt[1, ub] += self.freq[ub] * add
        cnt[2, ub] += self.r2[ub] * instr
        cnt[3, ub] += self.r3[ub] * instr
        cnt[4, ub] += self.rm[ub] * instr
        cnt[5, ub] += self.rl1[ub] * instr
        self.cur_res[ub] += add
        self.ft[ub] += add
        self.retired[ub] += instr
        if nbad:
            jitter = self._jitter
            for p in np.nonzero(bad)[0]:
                i = int(ub[p])
                first = float(self.thr[i]) if i in jitter else None
                self._advance_busy_lane(i, ((t0, eff),), first_thr=first)

    def _draw_jitter(self, lanes) -> None:
        """Draw this span's jitter value for each jittered busy lane in
        ``lanes`` and fold it into that lane's throughput column.

        The buffer discipline: refill 64 at span start iff the buffer is
        absent or sigma changed, refill 256 on exhaustion, one draw per
        slice — and the vector pass is one slice.
        Per-core RNG streams are independent, so lane order is irrelevant.
        """
        pdata = self.pdata
        pidx = self.pidx
        freq_col = self.freq
        thr_col = self.thr
        for i in lanes:
            core = self.cores[i]
            sigma = core.config.latency_jitter_sigma
            _, _, ccpi, mem = pdata[i][pidx[i]][:4]
            freq = freq_col[i]
            if sigma > 0.0:
                buf = core._jitter_buf
                if buf is None or buf[0] != sigma:
                    core._refill_jitter(64)
                    buf = core._jitter_buf
                jits = buf[2]
                pos = core._jitter_pos
                if pos >= len(jits):
                    core._refill_jitter(256)
                    jits = core._jitter_buf[2]
                    pos = core._jitter_pos
                jit = jits[pos]
                core._jitter_pos = pos + 1
                cpi = ccpi + mem * jit * freq
            else:
                cpi = ccpi + mem * freq
            thr_col[i] = freq / cpi

    # -- banked machines: one observe per span, or the chunked walk -----------------

    def _plan_banked(self, t0: float, e2: float, dt: float):
        """Pure pre-pass over resident banked machines: the span's
        observation boundaries, each machine's span demand, and its bank's
        planned observes.

        The demand is ``PowerMeter.system_power_w`` priced from the power
        column: the builtin ``sum`` of the core powers in core order (it
        compensates float addition on Python 3.12, so no other summation
        is bit-equal on every version), plus the non-CPU draw.

        Returns ``(plans, grid)``, one ``(slot, demand, actions)`` plan per
        machine.  ``grid`` is None when the span is one observation chunk:
        the banked lanes then ride the whole-fleet pass and each machine's
        planned observe lands at the span end.  Otherwise it holds the
        chunk arrays of :meth:`_advance_banked`.  Returns None
        (whole-fleet span fallback, columns untouched) when a raising bank
        plans a cascade or a walked chunk would leave a float residue —
        both cases where only the scalar path reproduces the partial
        advance / exception order.
        """
        e_pow = self.e_pow
        elane = self.elane
        bounds = observation_bounds(t0, e2, dt)
        plans = []
        for slot in self._banked:
            m, lo, hi, _, _ = slot
            demand = (sum(e_pow[elane[lo:hi]].tolist())
                      + m.meter.non_cpu_power_w)
            _, actions, raises = m.supply_bank.plan_constant_span(bounds,
                                                                  demand)
            if raises:
                self._span_blocker = "bank"
                return None
            plans.append((slot, demand, actions))
        if len(bounds) == 1:
            return plans, None
        barr = np.asarray(bounds)
        starts = np.empty(barr.size)
        starts[0] = t0
        starts[1:] = barr[:-1]
        dts = barr - starts
        ends = starts + dts
        # Where the scalar idle loop would cut a second slice.
        if np.any(ends - (starts + (ends - starts)) > _MIN_SLICE_S):
            kind = self.kind
            if any(kind[i] == _IDLE for (_, lo, hi, _, _), _, _ in plans
                   for i in range(lo, hi)):
                self._span_blocker = "corner"
                return None
        return plans, (bounds, barr, dts,
                       list(zip(starts.tolist(), dts.tolist())))

    def _advance_banked(self, plans, grid) -> None:
        """Advance each banked machine through the span's observation
        chunks — ``SMPMachine.advance``'s per-chunk walk against columns:
        each lane across every chunk, then the ledger's 2-D cumsum, then
        the planned observes.  While telemetry is enabled the lanes'
        phase-transition events are collected and emitted in the scalar
        order: chunk by chunk, lanes in core order, each chunk's observe
        (and its PSU events) after them."""
        kind = self.kind
        tel = get_telemetry()
        bounds, barr, dts, chunks = grid
        for (m, lo, hi, e_lo, e_hi), demand, actions in plans:
            log = [] if tel.enabled else None
            for i in range(lo, hi):
                if kind[i] == _BUSY:
                    self._advance_busy_lane(i, chunks, log=log)
                else:
                    self._advance_idle_lane(i, dts)
            # One ledger.advance_to per chunk, as a 2-D cumsum over this
            # machine's contiguous account slice: each row accumulates
            # left-to-right, bit-equal to the per-chunk loop.
            pw = self.e_pow[e_lo:e_hi]
            buf = np.empty((e_hi - e_lo, barr.size + 1))
            buf[:, 0] = self.e_energy[e_lo:e_hi]
            buf[:, 1] = pw * (barr[0] - self.e_last[e_lo:e_hi])
            if barr.size > 1:
                buf[:, 2:] = pw[:, None] * (barr[1:] - barr[:-1])[None, :]
            self.e_energy[e_lo:e_hi] = buf.cumsum(axis=1)[:, -1]
            self.e_last[e_lo:e_hi] = barr[-1]
            # The real observes: overload episodes, cascades, PSU events —
            # identical to the scalar per-chunk observes.
            bank = m.supply_bank
            a = 0
            if log:
                log.sort(key=lambda event: event[0])  # stable: lanes in order
                for j, t, job, src, dst in log:
                    while a < len(actions) and actions[a] < j:
                        bank.observe(bounds[actions[a]], demand)
                        a += 1
                    tel.emit(EVENT_PHASE_TRANSITION, sim_time_s=t, job=job,
                             from_phase=src, to_phase=dst)
            for j in actions[a:]:
                bank.observe(bounds[j], demand)

    def _advance_idle_lane(self, i: int, dts: np.ndarray) -> None:
        """One stationary hot-idle slice per chunk, accumulated in bulk
        against this lane's columns (the caller pre-checked the
        float-residue corner where the scalar loop would cut a second
        degenerate slice)."""
        use = dts[dts > _MIN_SLICE_S]
        if use.size == 0:
            return
        cnt = self.cnt
        thr = float(self.thr[i])
        instr = thr * use
        cnt[0, i] = _acc(float(cnt[0, i]), instr)
        cnt[1, i] = _acc(float(cnt[1, i]), float(self.freq[i]) * use)
        for rate, row in ((float(self.r2[i]), 2), (float(self.r3[i]), 3),
                          (float(self.rm[i]), 4),
                          (float(self.rl1[i]), 5)):
            # Zero-rate adds are bitwise no-ops (x + 0.0 == x, x >= 0).
            if rate != 0.0:
                cnt[row, i] = _acc(float(cnt[row, i]), rate * instr)
        self.cur_res[i] = _acc(float(self.cur_res[i]), use)
        self.ft[i] = _acc(float(self.ft[i]), use)

    def _advance_busy_lane(self, i: int, chunks, *,
                           first_thr: float | None = None,
                           log: list | None = None) -> None:
        """``_advance_slice`` with the span-stable conditions hoisted out
        (constant frequency, no settling boundary, no overhead debt)
        against this lane's columns, jitter draws, the dispatcher's quantum
        and phase-transition events included.  Every float operation
        matches the scalar slice loop in kind and order.

        ``first_thr`` carries the throughput the span pre-pass already
        drew for this lane (one draw per span); the first slice consumes
        it and every later slice draws fresh, so the RNG stream matches
        the scalar loop exactly.

        ``log``, when given, collects the phase-transition events as
        ``(chunk index, time, job, from_phase, to_phase)`` instead of
        emitting them, for the banked walk to emit in the scalar order.

        A completion or a quantum expiry changes the job at the head of
        the queue: the replay does ``Dispatcher.account_run``'s pop or
        rotation and hands the rest of the span to :meth:`_handoff`.  A
        walked span parks every banked machine whose lanes could complete
        or rotate, so ``chunks`` is then the whole span.
        """
        core = self.cores[i]
        job = self.jobs[i]
        once = job.loop is not LoopMode.LOOP
        pdata = self.pdata[i]
        nph = len(pdata)
        pidx = self.pidx[i]
        freq = float(self.freq[i])
        cnt = self.cnt
        prog = float(self.prog[i])
        retired = float(self.retired[i])
        iters = job.iterations
        ci = float(cnt[0, i])
        cc = float(cnt[1, i])
        c2 = float(cnt[2, i])
        c3 = float(cnt[3, i])
        cm = float(cnt[4, i])
        cl1 = float(cnt[5, i])
        pt = core.phase_time_s
        res = self.pending[i]
        name, pinstr, ccpi, mem, r2, r3, rm, rl1 = pdata[pidx]
        cur_res = float(self.cur_res[i])
        ft = float(self.ft[i])
        min_slice = _MIN_SLICE_S
        multi = i in self._multi
        qleft = float(self.qleft[i]) if multi else np.inf
        disp = core.dispatcher
        handoff = False

        sigma = core.config.latency_jitter_sigma
        jits: list[float] = []
        pos = buflen = 0
        if sigma > 0.0:
            if first_thr is None and (core._jitter_buf is None
                                      or core._jitter_buf[0] != sigma):
                core._refill_jitter(64)
            jits = core._jitter_buf[2]
            pos = core._jitter_pos
            buflen = len(jits)

        tel = get_telemetry()
        emit = tel.enabled
        jname = job.name
        throughput = first_thr
        try:
            for j, (start, dt) in enumerate(chunks):
                t = start
                end = start + dt
                while end - t > min_slice:
                    rem = pinstr - prog
                    if throughput is None:
                        if sigma > 0.0:
                            if pos >= buflen:
                                core._jitter_pos = pos
                                core._refill_jitter(256)
                                jits = core._jitter_buf[2]
                                pos = core._jitter_pos
                                buflen = len(jits)
                            jit = jits[pos]
                            pos += 1
                            cpi = ccpi + mem * jit * freq
                        else:
                            cpi = ccpi + mem * freq
                        throughput = freq / cpi
                    if throughput <= 0.0:
                        raise SimulationError(
                            f"non-positive throughput on core {core.core_id}")
                    ttpe = rem / throughput
                    limit = end - t
                    chunk = limit if limit < ttpe else ttpe
                    if qleft < chunk:
                        chunk = qleft
                    if chunk < min_slice:
                        chunk = min_slice
                    if chunk >= ttpe:
                        chunk = ttpe
                        instr = rem
                    else:
                        instr = throughput * chunk
                    if instr <= 0.0:
                        # Degenerate float corner: force the boundary across.
                        instr = rem
                        chunk = ttpe
                    ci += instr
                    cc += freq * chunk
                    c2 += r2 * instr
                    c3 += r3 * instr
                    cm += rm * instr
                    cl1 += rl1 * instr
                    cur_res += chunk
                    ft += chunk
                    prog += instr
                    retired += instr
                    t = t + chunk
                    throughput = None
                    if prog >= pinstr * (1.0 - 1e-12):
                        prog = 0.0
                        if once and pidx + 1 >= nph:
                            # Completion crossing: Job._advance_phase and
                            # Dispatcher.account_run's done path, in the
                            # scalar slice's exact order.
                            res[name] = cur_res
                            job.state = JobState.COMPLETED
                            job.completed_at_s = t
                            if emit:
                                tel.emit(EVENT_PHASE_TRANSITION,
                                         sim_time_s=t, job=jname,
                                         from_phase=name, to_phase=None)
                            disp._queue.popleft()
                            disp.finished.append(job)
                            disp._quantum_left_s = disp.quantum_s
                            core.idle_detector.note_queue_length(
                                len(disp._queue))
                            handoff = True
                            break
                        if pidx + 1 < nph:
                            pidx += 1
                        else:
                            pidx = 0
                            iters += 1
                        res[name] = cur_res
                        prev_name = name
                        name, pinstr, ccpi, mem, r2, r3, rm, rl1 = pdata[pidx]
                        nxt = res.get(name)
                        if nxt is None:
                            nxt = pt.get(name, 0.0)
                        cur_res = nxt
                        if log is not None:
                            log.append((j, t, jname, prev_name, name))
                        elif emit:
                            # Same payload/order as Job.retire's
                            # _advance_phase (a looping job is never done).
                            tel.emit(EVENT_PHASE_TRANSITION,
                                     sim_time_s=t, job=jname,
                                     from_phase=prev_name, to_phase=name)
                    if multi:
                        # Dispatcher.account_run's quantum accounting.
                        qleft -= chunk
                        if qleft <= 1e-12:
                            disp._queue.rotate(-1)
                            disp._quantum_left_s = disp.quantum_s
                            handoff = True
                            break
        finally:
            if sigma > 0.0:
                core._jitter_pos = pos
            cnt[0, i] = ci
            cnt[1, i] = cc
            cnt[2, i] = c2
            cnt[3, i] = c3
            cnt[4, i] = cm
            cnt[5, i] = cl1
            self.prog[i] = prog
            self.retired[i] = retired
            self.cur_res[i] = cur_res
            self.ft[i] = ft
            self.pidx[i] = pidx
            self.cur_name[i] = name
            self.pinstr[i] = pinstr
            self.ptol[i] = pinstr * (1.0 - 1e-12)
            self.thr[i] = freq / (ccpi + mem * freq)
            self.r2[i] = r2
            self.r3[i] = r3
            self.rm[i] = rm
            self.rl1[i] = rl1
            if multi:
                self.qleft[i] = qleft
            job.phase_index = pidx
            job.iterations = iters
        if handoff:
            self._handoff(i, t, end)

    def _handoff(self, i: int, t: float, end: float) -> None:
        """Finish a span the scalar way after a crossing changed the head
        of lane ``i``'s queue (a completion or a rotation).

        The lane's columns are written back to its objects, and the lane
        turns object-authoritative for the rest of the span: flushes skip
        it, :func:`gather_counters` reads its bank, and it re-derives at
        the next span start — exactly when the scalar re-reads
        ``core_power_w``.  ``_advance_slice`` then runs the next job, the
        drained core's idle loop, or further crossings up to ``end``, the
        replay's own span end.
        """
        self._flush_lane(i)
        self.kind[i] = _HANDOFF
        self._handed_off.add(i)
        self._remove_bank_hook(i)
        core = self.cores[i]
        self._dirty.add(core)
        while end - t > _MIN_SLICE_S:
            t = core._advance_slice(t, end)


# -- module-level dispatch ---------------------------------------------------------


def gather_counters(cores: list[SimulatedCore]) -> np.ndarray:
    """The current counter totals of ``cores`` as one ``(7, k)`` array,
    rows in :class:`CounterBank` field order: column ``j`` is what
    ``cores[j].counters.snapshot()`` returns.

    Resident lanes are read straight from the counter columns, through a
    lane index the live fleet caches per core list (keep passing the same
    list), and nothing is flushed.  Every other core reads
    ``bank.snapshot()``: a delegated or parked machine's, a lane handed
    to its objects for the rest of a span, and one outside any live fleet.
    """
    fleet = None
    for core in cores:
        f = core._fleet
        if f is not None and f._valid:
            fleet = f
            break
    if fleet is None:
        out = np.empty((7, len(cores)))
        for j, core in enumerate(cores):
            out[:, j] = core.counters.snapshot().as_tuple()
        return out
    index = fleet._gathers.get(id(cores))
    if index is None or index[0] is not cores:
        # -1: not resident in this fleet, so read from its bank below.
        lanes = np.array([fleet._lane_of.get(c, -1) for c in cores],
                         dtype=np.intp)
        index = (cores, lanes, np.flatnonzero(lanes < 0).tolist())
        fleet._gathers[id(cores)] = index
    _, lanes, others = index
    out = fleet.cnt[:, lanes]
    if fleet._parked:
        others = others + np.flatnonzero(fleet._parked_mask[lanes]).tolist()
    if fleet._handed_off:
        others = others + np.flatnonzero(
            np.isin(lanes, list(fleet._handed_off))).tolist()
    for j in others:
        out[:, j] = cores[j].counters.snapshot().as_tuple()
    return out


def _get_fleet(machines: list) -> FleetState:
    anchor = machines[0]
    cached = anchor.__dict__.get("_fleet_cache")
    if cached is not None:
        flist, fleet = cached
        if fleet._valid and (flist is machines or flist == machines):
            return fleet
    fleet = FleetState(machines)
    anchor.__dict__["_fleet_cache"] = (machines, fleet)
    return fleet


def advance_machines(machines, dt: float, *, flush: bool = True
                     ) -> tuple[int, dict[str, int] | None]:
    """Advance every machine across one event-free span of ``dt`` seconds,
    resident lanes through fleet columns and the rest through the scalar
    ``machine.advance`` reference.

    Returns the span's residency tally: the machine-spans advanced through
    the columns, and the machine-spans delegated to ``machine.advance``
    per reason label (None when no machine was delegated; treat the dict
    as read-only).  A span that raises returns nothing.

    ``flush=False`` leaves resident state in the columns (the driver's hot
    loop does this and flushes once when ``run_until`` returns); counters
    still synchronise on snapshot through the installed bank hook.
    """
    check_non_negative(dt, "dt")
    if not isinstance(machines, list):
        machines = list(machines)
    if dt == 0.0 or not machines:
        return 0, None
    fleet = _get_fleet(machines)
    if not fleet.prepare(dt):
        # A parked machine changed structure: a new fleet holds the
        # machines afresh, admitting or parking each one as it builds.
        fleet.detach()
        fleet = _get_fleet(machines)
        fleet.prepare(dt)
    try:
        advanced = fleet.advance(dt)
    except BaseException:
        fleet.flush()
        raise
    if not advanced:
        reason = fleet._span_blocker
        fleet.detach()
        for m in machines:
            m.advance(dt)
        return 0, {reason: len(machines)}
    try:
        for m in fleet.delegates:
            m.advance(dt)
        for m in fleet._parked:
            m.advance(dt)
    except BaseException:
        fleet.flush()
        raise
    if flush:
        fleet.flush()
    return len(fleet.resident), fleet.fallbacks


def flush_machines(machines) -> None:
    """Synchronise machine objects with any live fleet columns."""
    if not isinstance(machines, list):
        machines = list(machines)
    if not machines:
        return
    cached = machines[0].__dict__.get("_fleet_cache")
    if cached is not None and cached[1]._valid and \
            (cached[0] is machines or cached[0] == machines):
        cached[1].flush()


def reset_fleet(machines) -> None:
    """Dissolve any fleet over ``machines`` (flushes first).  Call before
    structural mutations the invalidation hooks cannot see — attaching a
    supply bank mid-run (the rebuilt fleet then runs it as a resident
    banked machine), swapping a meter/ledger/dispatcher instance."""
    if not isinstance(machines, list):
        machines = list(machines)
    if not machines:
        return
    cached = machines[0].__dict__.get("_fleet_cache")
    if cached is not None:
        if cached[1]._valid:
            cached[1].detach()
        del machines[0].__dict__["_fleet_cache"]
