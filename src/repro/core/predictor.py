"""Counter-driven IPC predictors.

Two realisations of the Section 4.3 model:

* :class:`CounterPredictor` (the default, and what a deployed system does):
  recover the frequency-independent CPI component ``c0`` from the *observed*
  CPI at the interval's effective frequency —

      c0 = CPI_observed - m * f_effective

  where ``m`` comes from the memory counters and the latency table.  This
  needs no assumed ``alpha``: whatever ILP the workload achieved is folded
  into the observation.  Remaining error sources: phase transitions between
  the observation and prediction windows, counter noise, latency jitter,
  and throttle settling — exactly the sources the paper discusses with
  Table 2.

* :class:`AlphaPredictor` (the paper's literal equation): build ``c0`` from
  an assumed platform constant ``alpha`` plus counted L1 stalls.  Biased
  whenever the true ILP differs from the assumption (the "predictor does
  not account for non-memory stalls" bias named in Section 8.1); kept for
  the predictor-variant ablation.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..errors import ModelError
from ..model.ipc import WorkloadSignature, signature_from_counts
from ..model.latency import MemoryLatencyProfile
from ..sim.counters import CounterSample
from ..units import check_positive

__all__ = ["PredictorProtocol", "CounterPredictor", "AlphaPredictor",
           "SignatureArrays"]

#: Floor on the recovered core CPI: even a perfect machine needs some
#: cycles per instruction; noise must not drive ``c0`` to zero or negative.
_MIN_CORE_CPI = 0.05

#: Minimum instructions in a window for a meaningful signature.
_MIN_INSTRUCTIONS = 1000.0


#: Column triple returned by the batched predictor paths:
#: ``(has_signature, core_cpi, mem_time_per_instr_s)``.  Rows whose window
#: carries no usable signature hold the scheduler's neutral placeholder
#: values (``core_cpi = 1.0``, ``mem_time_per_instr_s = 0.0``) and are
#: masked out by ``has_signature``.
SignatureArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


class PredictorProtocol(Protocol):
    """What the daemon and scheduler require of a predictor.

    The daemon needs only this method.  The cluster coordinator also
    needs the batched entry point ``signatures_from_arrays`` (see
    :class:`CounterPredictor`) and rejects a predictor without it at
    construction.
    """

    def signature_from_sample(self, sample: CounterSample) -> WorkloadSignature | None:
        """Workload signature from one counter window, or ``None`` when the
        window carries too little information (halted/empty intervals)."""
        ...


class CounterPredictor:
    """Observation-calibrated predictor (no assumed alpha)."""

    def __init__(self, latencies: MemoryLatencyProfile, *,
                 min_instructions: float = _MIN_INSTRUCTIONS) -> None:
        check_positive(min_instructions, "min_instructions")
        self.latencies = latencies
        self.min_instructions = min_instructions

    def signature_from_sample(self, sample: CounterSample) -> WorkloadSignature | None:
        if sample.instructions < self.min_instructions or sample.cycles <= 0.0:
            return None
        if sample.interval_s <= 0.0:
            return None
        cpi_observed = sample.cycles / sample.instructions
        mem_time_per_instr = (
            sample.memory_counts().memory_time_s(self.latencies)
            / sample.instructions
        )
        f_effective = sample.effective_freq_hz
        core_cpi = cpi_observed - mem_time_per_instr * f_effective
        core_cpi = max(core_cpi, _MIN_CORE_CPI)
        return WorkloadSignature(
            core_cpi=core_cpi, mem_time_per_instr_s=mem_time_per_instr
        )

    def predict_ipc(self, sample: CounterSample, freq_hz: float) -> float | None:
        """Projected IPC at ``freq_hz`` (None on an uninformative window)."""
        sig = self.signature_from_sample(sample)
        return None if sig is None else sig.ipc(freq_hz)

    def signatures_from_arrays(self, instructions: np.ndarray,
                               cycles: np.ndarray, n_l2: np.ndarray,
                               n_l3: np.ndarray, n_mem: np.ndarray,
                               l1_stall_cycles: np.ndarray,
                               interval_s: np.ndarray) -> SignatureArrays:
        """Vectorised :meth:`signature_from_sample` over N windows at once.

        One numpy evaluation replaces N scalar calls; every elementwise
        operation mirrors the scalar path in the same order, so valid rows
        are bit-identical to the per-sample signatures.  Inputs must be
        non-negative, as counter readers produce them (a scalar call would
        reject negative counts with an exception; the batch path does not
        re-validate per row).
        """
        instr = np.asarray(instructions, dtype=float)
        cyc = np.asarray(cycles, dtype=float)
        interval = np.asarray(interval_s, dtype=float)
        valid = (instr >= self.min_instructions) & (cyc > 0.0) \
            & (interval > 0.0)
        safe_instr = np.where(valid, instr, 1.0)
        safe_interval = np.where(valid, interval, 1.0)
        cpi_observed = cyc / safe_instr
        lat = self.latencies
        mem_total_s = (np.asarray(n_l2, dtype=float) * lat.t_l2_s
                       + np.asarray(n_l3, dtype=float) * lat.t_l3_s
                       + np.asarray(n_mem, dtype=float) * lat.t_mem_s)
        mem_time = mem_total_s / safe_instr
        f_effective = cyc / safe_interval
        core_cpi = np.maximum(cpi_observed - mem_time * f_effective,
                              _MIN_CORE_CPI)
        return (valid,
                np.where(valid, core_cpi, 1.0),
                np.where(valid, mem_time, 0.0))


class AlphaPredictor:
    """The paper's literal equation with an assumed platform ``alpha``."""

    def __init__(self, latencies: MemoryLatencyProfile, *, alpha: float,
                 min_instructions: float = _MIN_INSTRUCTIONS) -> None:
        check_positive(alpha, "alpha")
        check_positive(min_instructions, "min_instructions")
        self.latencies = latencies
        self.alpha = alpha
        self.min_instructions = min_instructions

    def signature_from_sample(self, sample: CounterSample) -> WorkloadSignature | None:
        if sample.instructions < self.min_instructions:
            return None
        try:
            return signature_from_counts(
                sample.memory_counts(), self.latencies, alpha=self.alpha
            )
        except ModelError:
            return None

    def predict_ipc(self, sample: CounterSample, freq_hz: float) -> float | None:
        """Projected IPC at ``freq_hz`` (None on an uninformative window)."""
        sig = self.signature_from_sample(sample)
        return None if sig is None else sig.ipc(freq_hz)

    def signatures_from_arrays(self, instructions: np.ndarray,
                               cycles: np.ndarray, n_l2: np.ndarray,
                               n_l3: np.ndarray, n_mem: np.ndarray,
                               l1_stall_cycles: np.ndarray,
                               interval_s: np.ndarray) -> SignatureArrays:
        """Vectorised :meth:`signature_from_sample` over N windows at once.

        The alpha model ignores ``cycles`` and ``interval_s`` (the assumed
        platform constant replaces observation) exactly as the scalar path
        does; they are accepted so both predictors share one batched
        calling convention.  Valid rows are bit-identical to the scalar
        signatures.
        """
        del cycles, interval_s  # unused by the alpha model, as scalar
        instr = np.asarray(instructions, dtype=float)
        valid = instr >= self.min_instructions
        safe_instr = np.where(valid, instr, 1.0)
        core_cpi = (1.0 / self.alpha
                    + np.asarray(l1_stall_cycles, dtype=float) / safe_instr)
        lat = self.latencies
        mem_total_s = (np.asarray(n_l2, dtype=float) * lat.t_l2_s
                       + np.asarray(n_l3, dtype=float) * lat.t_l3_s
                       + np.asarray(n_mem, dtype=float) * lat.t_mem_s)
        mem_time = mem_total_s / safe_instr
        return (valid,
                np.where(valid, core_cpi, 1.0),
                np.where(valid, mem_time, 0.0))
