"""The frequency and voltage scheduling algorithm (Figure 3).

Three steps over all processors of all nodes:

1. For every processor, compute the predicted performance loss (relative to
   ``f_max``) at every available frequency and pick the lowest frequency
   whose loss is strictly below ``epsilon`` — the *epsilon-constrained*
   frequency.  An idle-signalled processor gets ``f_min`` outright; a
   processor with no usable counter data conservatively gets ``f_max``.
2. While aggregate processor power exceeds the global limit, repeatedly
   take the processor whose *next lower* frequency has the smallest
   predicted loss versus ``f_max`` and move it down one step.  Idle
   processors (predicted loss 0) drain first; processors with unknown
   workloads are treated pessimistically as pure-CPU (loss grows linearly
   as frequency drops).  Per-node limits nested inside the global one run
   the same reduction over each limited node's processors first.
3. Assign each processor the minimum stable voltage for its frequency.

The implementation is vectorised: step 1 evaluates one ``(P x F)``
predicted-loss matrix over all processors and all ladder rungs in a single
numpy pass, and step 2 runs the Section 5 single-pass formulation — a
min-heap holding each processor's next downward rung keyed by incremental
loss — instead of rescanning every processor per reduction.  Both produce
exactly the schedule the literal Figure 3 loops would (same greedy metric,
same deterministic tie-break, bit-identical losses), which the worked
example and the property tests pin.

If every processor reaches the bottom of the ladder and power still
exceeds the limit, the budget is infeasible for DVFS alone; callers choose
between an exception and the floor schedule (the daemon applies the floor
and lets the compliance monitor record the violation — powering nodes down
is a different governor's job).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .. import constants
from ..errors import InfeasibleBudgetError, PowerModelError, SchedulingError
from ..model.ipc import WorkloadSignature
from ..model.perf import perf_loss
from ..power.table import FrequencyPowerTable
from ..telemetry import Telemetry, get_telemetry
from ..units import check_positive
from .voltage import VoltageSelector

__all__ = [
    "ProcessorView",
    "ViewBatch",
    "ProcessorAssignment",
    "Schedule",
    "FrequencyVoltageScheduler",
]


@dataclass(frozen=True, slots=True)
class ProcessorView:
    """What the scheduler knows about one processor at scheduling time."""

    node_id: int
    proc_id: int
    #: Aggregate workload signature from the last window (None = no data).
    signature: WorkloadSignature | None
    #: True when an idle signal is active for this processor (Section 5).
    idle_signaled: bool = False


class ViewBatch:
    """Structure-of-arrays form of a population of :class:`ProcessorView`.

    The scheduler's pass reads only columns: the signature columns, the
    idle mask, and the (node, proc) keys.  A producer that already has
    columns (the cluster coordinator's batched predictor path) builds a
    ``ViewBatch`` directly and skips N·P ``ProcessorView`` and
    ``WorkloadSignature`` objects per pass; ``schedule`` turns a view list
    into one with :meth:`from_views`.

    Rows without a usable signature (``has_signature`` False) must hold the
    neutral placeholder values ``core_cpi = 1.0`` and
    ``mem_time_per_instr_s = 0.0`` — the same placeholders the vectorised
    loss matrix uses before masking — which the batched predictors emit.
    """

    __slots__ = ("node_ids", "proc_ids", "has_signature", "core_cpi",
                 "mem_time_per_instr_s", "idle_signaled")

    def __init__(self, node_ids, proc_ids, has_signature, core_cpi,
                 mem_time_per_instr_s, idle_signaled=None) -> None:
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.proc_ids = np.asarray(proc_ids, dtype=np.int64)
        self.has_signature = np.asarray(has_signature, dtype=bool)
        self.core_cpi = np.asarray(core_cpi, dtype=float)
        self.mem_time_per_instr_s = np.asarray(mem_time_per_instr_s,
                                               dtype=float)
        n = self.node_ids.size
        if idle_signaled is None:
            self.idle_signaled = np.zeros(n, dtype=bool)
        else:
            self.idle_signaled = np.asarray(idle_signaled, dtype=bool)
        for name in ("proc_ids", "has_signature", "core_cpi",
                     "mem_time_per_instr_s", "idle_signaled"):
            if getattr(self, name).shape != (n,):
                raise SchedulingError(
                    f"ViewBatch column {name!r} has shape "
                    f"{getattr(self, name).shape}, expected ({n},)"
                )

    @classmethod
    def from_views(cls, views: Sequence[ProcessorView]) -> "ViewBatch":
        """Column form of existing view objects."""
        n = len(views)
        return cls(
            node_ids=[v.node_id for v in views],
            proc_ids=[v.proc_id for v in views],
            has_signature=np.fromiter(
                (v.signature is not None for v in views), dtype=bool,
                count=n),
            core_cpi=[v.signature.core_cpi if v.signature is not None
                      else 1.0 for v in views],
            mem_time_per_instr_s=[
                v.signature.mem_time_per_instr_s
                if v.signature is not None else 0.0 for v in views],
            idle_signaled=np.fromiter(
                (v.idle_signaled for v in views), dtype=bool, count=n),
        )

    def __len__(self) -> int:
        return self.node_ids.size

    def __repr__(self) -> str:
        return (f"ViewBatch({len(self)} procs, "
                f"{int(self.has_signature.sum())} with signatures, "
                f"{int(self.idle_signaled.sum())} idle)")


class ProcessorAssignment(NamedTuple):
    """One processor's scheduled operating point.

    A ``NamedTuple`` rather than a dataclass: a global pass materialises
    one per processor, and tuple construction is ~3x cheaper than a frozen
    dataclass ``__init__`` — it is the dominant per-processor cost once
    the rest of the pass is columnar.  Field access, equality, and
    ``repr`` are unchanged.
    """

    node_id: int
    proc_id: int
    freq_hz: float
    voltage: float
    power_w: float
    #: Predicted fractional loss vs f_max at the final frequency.
    predicted_loss: float
    #: The step-1 epsilon-constrained frequency (before the power pass) —
    #: the "desired" frequency of Figures 9/10.
    eps_freq_hz: float


@dataclass(frozen=True)
class Schedule:
    """A complete scheduling decision."""

    assignments: tuple[ProcessorAssignment, ...]
    total_power_w: float
    power_limit_w: float | None
    epsilon: float
    #: True when the power limit could not be met even at the floor.
    infeasible: bool = field(default=False)
    #: Step-2 downward moves this pass took (0 = step-1 demand already fit
    #: the budget; > 0 means the budget bit — a telemetry "budget breach").
    reduction_steps: int = field(default=0)

    @property
    def budget_met(self) -> bool:
        """Whether predicted power respects the limit (True if unlimited)."""
        if self.power_limit_w is None:
            return True
        return self.total_power_w <= self.power_limit_w + 1e-9

    def frequency_vector_hz(self) -> list[float]:
        """Final frequencies, in (node, proc) order."""
        return [a.freq_hz for a in self.assignments]

    def eps_frequency_vector_hz(self) -> list[float]:
        """Step-1 epsilon-constrained frequencies, in (node, proc) order."""
        return [a.eps_freq_hz for a in self.assignments]

    def power_vector_w(self) -> list[float]:
        """Per-processor power, in (node, proc) order."""
        return [a.power_w for a in self.assignments]

    def loss_vector(self) -> list[float]:
        """Per-processor predicted loss, in (node, proc) order."""
        return [a.predicted_loss for a in self.assignments]

    def assignment_for(self, node_id: int, proc_id: int) -> ProcessorAssignment:
        for a in self.assignments:
            if a.node_id == node_id and a.proc_id == proc_id:
                return a
        raise SchedulingError(f"no assignment for node {node_id} proc {proc_id}")


class FrequencyVoltageScheduler:
    """The Figure 3 algorithm over a fixed operating-point table.

    ``power_scales`` maps ``(node_id, proc_id)`` to a power multiplier for
    parts that draw more or less than the table at every operating point
    (process variation: "this part draws 12% more").  Step 2 then sheds
    power where a watt buys the least performance on that specific part,
    and the predicted total reflects the mixed silicon.  Parts absent from
    the map draw the table's power.
    """

    def __init__(self, table: FrequencyPowerTable, *,
                 epsilon: float = constants.DEFAULT_EPSILON,
                 voltage_selector: VoltageSelector | None = None,
                 telemetry: Telemetry | None = None,
                 power_scales: Mapping[tuple[int, int], float] | None = None
                 ) -> None:
        check_positive(epsilon, "epsilon")
        if epsilon >= 1.0:
            raise SchedulingError("epsilon must be < 1")
        self.table = table
        self.epsilon = epsilon
        self.voltages = voltage_selector or VoltageSelector()
        self.power_scales = dict(power_scales or {})
        for key, scale in self.power_scales.items():
            if not 0.0 < scale < math.inf:
                raise PowerModelError(
                    f"power scale {scale!r} for {key} must be positive "
                    f"and finite")
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        m = self.telemetry.metrics
        self._m_passes = m.counter(
            "scheduler_passes_total", "Complete Figure 3 scheduling passes")
        self._m_step1 = m.counter(
            "scheduler_step1_evaluations_total",
            "Step-1 epsilon-constrained frequency selections (one per view)")
        self._m_step2 = m.counter(
            "scheduler_step2_iterations_total",
            "Step-2 greedy one-step frequency reductions")
        self._m_loss = m.counter(
            "scheduler_loss_evaluations_total",
            "Predicted-loss evaluations across steps 1 and 2")
        self._m_pass_seconds = m.histogram(
            "scheduler_pass_seconds",
            "Wall-clock latency of one scheduling pass")

    # -- the scalar reference -------------------------------------------------------

    def power_for(self, node_id: int, proc_id: int, freq_hz: float) -> float:
        """Power of one processor at an operating point (its table power
        times its ``power_scales`` entry)."""
        return (self.table.power_at(freq_hz)
                * self.power_scales.get((node_id, proc_id), 1.0))

    def predicted_loss(self, signature: WorkloadSignature | None,
                       freq_hz: float) -> float:
        """Predicted loss vs f_max at ``freq_hz``.

        Unknown workloads are treated as pure CPU (the pessimistic bound
        ``1 - f/f_max``).
        """
        if signature is None:
            return 1.0 - freq_hz / self.table.f_max_hz
        return perf_loss(signature, self.table.f_max_hz, freq_hz)

    def epsilon_constrained(self, signature: WorkloadSignature | None
                            ) -> tuple[float, float]:
        """Lowest frequency with predicted loss < epsilon.

        Returns ``(freq_hz, predicted_loss_at_freq)``.  Always succeeds:
        ``f_max`` has loss 0.
        """
        freqs = self.table.freqs_array()
        if signature is None:
            losses = 1.0 - freqs / self.table.f_max_hz
        else:
            perf = signature.ipc_array(freqs) * freqs
            losses = (perf[-1] - perf) / perf[-1]
        admissible = np.flatnonzero(losses < self.epsilon)
        idx = int(admissible[0]) if admissible.size else len(freqs) - 1
        return float(freqs[idx]), float(losses[idx])

    # -- vectorised evaluation -----------------------------------------------------

    def _loss_matrix(self, batch: ViewBatch) -> np.ndarray:
        """Predicted loss vs ``f_max`` for every (processor, rung) pair.

        Row ``i`` holds :meth:`predicted_loss` of row ``i`` at every
        ladder frequency (ascending) — one numpy pass instead of ``P x F``
        scalar model evaluations.  The elementwise operations mirror the
        scalar path exactly (``ipc * f``, then the relative drop against
        the ``f_max`` column), so entries are bit-identical to
        :meth:`predicted_loss`.  Idle signals are a step-2/3 concern and
        do not zero rows here.
        """
        freqs = self.table.freqs_array()
        has_sig = batch.has_signature
        ipc = 1.0 / (batch.core_cpi[:, None]
                     + batch.mem_time_per_instr_s[:, None] * freqs[None, :])
        perf = ipc * freqs[None, :]
        ref = perf[:, -1:]
        losses = (ref - perf) / ref
        if not has_sig.all():
            # No counter data: the pessimistic pure-CPU bound 1 - f/f_max.
            pessimistic = 1.0 - freqs / self.table.f_max_hz
            losses = np.where(has_sig[:, None], losses, pessimistic[None, :])
        return losses

    def _step1_indices(self, losses: np.ndarray) -> np.ndarray:
        """Epsilon-constrained rung index per row (idle handled by caller):
        the first admissible rung, vectorised."""
        admissible = losses < self.epsilon
        return np.where(admissible.any(axis=1), admissible.argmax(axis=1),
                        losses.shape[1] - 1)

    def power_ladders(self, node_ids: Sequence[int],
                      proc_ids: Sequence[int]) -> np.ndarray:
        """Per-processor power at every rung, shape ``(P, F)``.

        Without ``power_scales`` every row is one broadcast view of the
        table's cached power array; with them each row is that array times
        the part's scale, entry for entry what :meth:`power_for` returns.
        """
        powers = self.table.powers_array()
        if not self.power_scales:
            return np.broadcast_to(powers, (len(node_ids), powers.size))
        get = self.power_scales.get
        scales = np.fromiter((get(key, 1.0)
                              for key in zip(node_ids, proc_ids)),
                             dtype=float, count=len(node_ids))
        return scales[:, None] * powers[None, :]

    # -- the full pass ------------------------------------------------------------

    def schedule(self, views: "Sequence[ProcessorView] | ViewBatch",
                 power_limit_w: float | None = None, *,
                 node_limits_w: Mapping[int, float] | None = None,
                 max_freq_hz: float | None = None,
                 min_freqs_hz: Mapping[int, float] | None = None,
                 on_infeasible: Literal["floor", "raise"] = "floor") -> Schedule:
        """Run steps 1–3 and return the complete decision.

        ``node_limits_w`` maps node ids to per-node limits nested inside
        the global one (a node whose own supply degrades must get under
        its node budget regardless of the cluster-wide picture).  Before
        the global step 2, one step-2 pass per limited node, in node-id
        order, reduces only that node's processors until it fits.  Those
        passes never raise a frequency, so the global pass (which only
        lowers further) keeps every node limit met.  A limit naming a
        node absent from ``views`` is a :class:`SchedulingError`.

        ``max_freq_hz`` is an optional per-processor frequency ceiling —
        the mechanism a *thermal* constraint needs, since an aggregate
        power budget cannot stop one CPU-bound processor from running hot
        while its neighbours idle cold.  The ceiling is quantised down to
        the ladder and applied after step 1 (the epsilon-constrained
        "desired" frequency is recorded unclamped).

        ``min_freqs_hz`` maps node ids to per-node frequency *floors* —
        the mechanism an SLO-latency constraint needs: a node serving
        requests must not drop below the frequency that keeps its tail
        latency under target, no matter how deep the power budget cuts.
        Floors are quantised up to the ladder, win conflicts with the
        idle pin and the ceiling, and bound every step-2 pass from below;
        a limit unreachable without breaking a floor is reported
        ``infeasible`` (the floor schedule stands).  Nodes absent from the
        map have no floor; map entries for nodes absent from ``views`` are
        ignored (a degraded pass schedules live nodes only).
        """
        n = len(views)
        if not n:
            raise SchedulingError("no processors to schedule")
        batch = views if isinstance(views, ViewBatch) \
            else ViewBatch.from_views(views)
        nodes_list = batch.node_ids.tolist()
        procs_list = batch.proc_ids.tolist()
        idle = batch.idle_signaled
        if len(set(zip(nodes_list, procs_list))) != n:
            raise SchedulingError("duplicate (node, proc) in views")
        if power_limit_w is not None:
            check_positive(power_limit_w, "power_limit_w")
        for node_id, limit_w in (node_limits_w or {}).items():
            check_positive(limit_w, f"node_limits_w[{node_id}]")
        cap_idx: int | None = None
        if max_freq_hz is not None:
            check_positive(max_freq_hz, "max_freq_hz")
            if max_freq_hz < self.table.f_min_hz:
                raise SchedulingError(
                    f"frequency ceiling {max_freq_hz:.3e} Hz below the "
                    f"ladder floor {self.table.f_min_hz:.3e} Hz"
                )
            cap_idx = self.table.index_of(self.table.quantize_down(max_freq_hz))
        floor_idx = self._floor_indices(nodes_list, min_freqs_hz)

        tel = self.telemetry
        wall0 = time.perf_counter() if tel.enabled else 0.0

        # Step 1: one (P x F) loss matrix, the epsilon rule as a vectorised
        # first-admissible-rung selection, idle pins, the ceiling, then the
        # SLO floors (floors win: a request-serving node must hold its tail
        # latency even against a thermal ceiling or an idle signal).
        losses = self._loss_matrix(batch)
        idx = self._step1_indices(losses)
        idx[idle] = 0
        eps_idx = idx.copy()
        if cap_idx is not None:
            np.minimum(idx, cap_idx, out=idx)
        if floor_idx is not None:
            np.maximum(idx, floor_idx, out=idx)
        step1_evals = n - int(idle.sum())

        # Step 2: heap-based greedy power reduction — the per-node passes
        # over row slices of the shared matrices, then the global pass.
        ladders = self.power_ladders(nodes_list, procs_list)
        results: list[tuple[bool, int, int]] = []
        if power_limit_w is not None or node_limits_w:
            # Idle processors cost nothing to slow down.
            step2_losses = np.where(idle[:, None], 0.0, losses) \
                if idle.any() else losses
            for node_id, limit_w in sorted((node_limits_w or {}).items()):
                rows = np.flatnonzero(batch.node_ids == node_id)
                if rows.size == 0:
                    raise SchedulingError(
                        f"node limit for unknown node {node_id}")
                row_list = rows.tolist()
                sub_idx = idx[rows]
                results.append(self._reduce_indices(
                    [nodes_list[i] for i in row_list],
                    [procs_list[i] for i in row_list],
                    sub_idx, step2_losses[rows], ladders[rows], limit_w,
                    on_infeasible,
                    floor_idx=None if floor_idx is None else floor_idx[rows]))
                idx[rows] = sub_idx
            if power_limit_w is not None:
                results.append(self._reduce_indices(
                    nodes_list, procs_list, idx, step2_losses, ladders,
                    power_limit_w, on_infeasible, floor_idx=floor_idx))
        infeasible = any(r[0] for r in results)
        steps = sum(r[1] for r in results)
        loss_evals = sum(r[2] for r in results)

        # Step 3: voltages, and assembly.
        assignments, total = self._assemble_assignments(
            nodes_list, procs_list, idx, eps_idx, losses, idle, ladders)
        if tel.enabled:
            self._m_passes.inc()
            self._m_step1.inc(step1_evals)
            self._m_step2.inc(steps)
            # Step 1 scores the whole ladder per view; step 2 one candidate
            # per heap push.
            self._m_loss.inc(step1_evals * len(self.table) + loss_evals)
            self._m_pass_seconds.observe(time.perf_counter() - wall0)
        return Schedule(
            assignments=assignments,
            total_power_w=total,
            power_limit_w=power_limit_w,
            epsilon=self.epsilon,
            infeasible=infeasible,
            reduction_steps=steps,
        )

    def _assemble_assignments(self, nodes_list: list[int],
                              procs_list: list[int], idx: np.ndarray,
                              eps_idx: np.ndarray, losses: np.ndarray,
                              idle: np.ndarray, ladders: np.ndarray
                              ) -> tuple[tuple[ProcessorAssignment, ...],
                                         float]:
        """Step 3 plus assembly: the final per-processor operating points.

        Works column-wise: per-field lists indexed by rung, then one
        positional ``map`` over the columns — scalar lookups off plain
        Python lists beat numpy scalar indexing at this size, and one
        ``map`` beats P keyword constructor calls.  Identical parts read
        power straight off the table's rung tuple, scaled parts off their
        ladder rows, and a plain :class:`VoltageSelector` with no
        per-processor overrides collapses to one voltage per rung.
        """
        n = len(nodes_list)
        freqs_list = self.table.freqs_hz
        idx_list = idx.tolist()
        freq_i = [freqs_list[k] for k in idx_list]
        eps_i = [freqs_list[k] for k in eps_idx.tolist()]
        rows = np.arange(n)
        loss_i = np.where(idle, 0.0, losses[rows, idx]).tolist()
        rung_volts = self.voltages.rung_voltages(freqs_list) \
            if type(self.voltages) is VoltageSelector else None
        if rung_volts is not None:
            volt_i = [rung_volts[k] for k in idx_list]
        else:
            min_voltage = self.voltages.min_voltage
            volt_i = [min_voltage(nodes_list[i], procs_list[i], freq_i[i])
                      for i in range(n)]
        if self.power_scales:
            power_i = ladders[rows, idx].tolist()
        else:
            powers_list = self.table.powers_w
            power_i = [powers_list[k] for k in idx_list]
        assignments = tuple(map(ProcessorAssignment, nodes_list, procs_list,
                                freq_i, volt_i, power_i, loss_i, eps_i))
        return assignments, sum(power_i)

    def _floor_indices(self, node_ids: Sequence[int],
                       min_freqs_hz: Mapping[int, float] | None
                       ) -> np.ndarray | None:
        """Per-row rung floors from a node-id -> frequency-floor map.

        Floors are quantised *up* (the next ladder point at or above the
        requested frequency — rounding down would break the latency
        guarantee the floor encodes) and clamp to the top of the ladder.
        Nodes absent from the map floor at rung 0; map entries naming no
        row are ignored.  Returns ``None`` when no floors apply.
        """
        if not min_freqs_hz:
            return None
        idx_by_node: dict[int, int] = {}
        for node_id, freq_hz in min_freqs_hz.items():
            check_positive(freq_hz, f"min_freqs_hz[{node_id}]")
            idx_by_node[node_id] = self.table.index_of(
                self.table.quantize_up(freq_hz))
        floor_idx = np.fromiter((idx_by_node.get(node_id, 0)
                                 for node_id in node_ids),
                                dtype=np.int64, count=len(node_ids))
        return floor_idx if floor_idx.any() else None

    def _reduce_indices(self, node_ids: Sequence[int],
                        proc_ids: Sequence[int],
                        idx: np.ndarray, losses: np.ndarray,
                        ladders: np.ndarray, limit_w: float,
                        on_infeasible: Literal["floor", "raise"],
                        floor_idx: np.ndarray | None = None
                        ) -> tuple[bool, int, int]:
        """Heap-based step 2, in place on the rung indices ``idx``.

        ``node_ids``/``proc_ids`` supply the deterministic heap tie-break
        keys; ``losses`` are step-2 incremental-loss rows (idle rows zeroed
        by the caller); ``ladders`` is the ``(P x F)`` per-processor power
        matrix.  Each processor holds exactly one live heap entry — its
        next downward rung keyed by ``(loss, node, proc)`` — so the pop
        order reproduces Figure 3's rescanning greedy exactly, in
        O(total rungs x log P) instead of O(steps x P).

        ``floor_idx`` raises individual processors' reduction floors above
        rung 0 (per-node SLO frequency floors); without it every processor
        may drain to the bottom of the ladder, exactly as before.

        Returns ``(infeasible, reduction_steps, loss_evaluations)`` so the
        caller can both flag the breach and feed the telemetry counters.
        """
        n = len(node_ids)
        idx_list = idx.tolist()
        lo_list = [0] * n if floor_idx is None else floor_idx.tolist()
        # Python-sum in view order, exactly as a per-processor rescan would.
        total = sum(ladders[np.arange(n), idx].tolist())
        if total <= limit_w:
            return False, 0, 0
        # The loop below is scalar by nature; plain nested lists beat numpy
        # scalar indexing several-fold.  A broadcast ladder (homogeneous
        # parts) collapses to one shared row.
        if ladders.ndim == 2 and ladders.strides[0] == 0:
            ladder_rows = [ladders[0].tolist()] * n
        else:
            ladder_rows = ladders.tolist()
        loss_rows = losses.tolist()
        heap: list[tuple[float, int, int, int]] = []  # (loss, node, proc, i)
        loss_evals = 0
        for i in range(n):
            k = idx_list[i]
            if k > lo_list[i]:
                heap.append((loss_rows[i][k - 1],
                             node_ids[i], proc_ids[i], i))
                loss_evals += 1
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        steps = 0
        try:
            while total > limit_w:
                if not heap:
                    if on_infeasible == "raise":
                        raise InfeasibleBudgetError(
                            f"power floor {total:.1f} W exceeds limit "
                            f"{limit_w:.1f} W"
                            " with every processor at minimum frequency",
                            floor_power_w=total, limit_w=limit_w,
                        )
                    return True, steps, loss_evals
                _loss, node_id, proc_id, i = heappop(heap)
                k = idx_list[i]
                if k <= lo_list[i]:
                    continue   # stale entry: already at the floor
                row = ladder_rows[i]
                total += row[k - 1] - row[k]
                idx_list[i] = k - 1
                steps += 1
                if k - 1 > lo_list[i]:
                    heappush(heap, (loss_rows[i][k - 2],
                                    node_id, proc_id, i))
                    loss_evals += 1
        finally:
            idx[:] = idx_list
        return False, steps, loss_evals
