"""Minimum-voltage assignment (Figure 3, step 3).

"The algorithm relies on a table look-up to determine the lowest voltage
setting allowed for the selected frequency of each processor.  It may be
the case that the voltage table is different for each processor if there is
significant process variation among them."

A :class:`VoltageSelector` maps (node, proc, frequency) to a voltage via a
default curve plus optional per-processor overrides.  The default curve is
the V(f) recovered by the Lava fit of Table 1.
"""

from __future__ import annotations

from typing import Sequence

from ..power.vf_curve import LinearVFCurve, VoltageFrequencyCurve

__all__ = ["default_vf_curve", "VoltageSelector"]

#: ``fit_lava_model(POWER4_TABLE).vf_curve``, frozen so that no run pays
#: for the fit or for importing its optimiser; a test pins it to a fresh
#: fit.
_TABLE1_VF_CURVE = LinearVFCurve(f_min_hz=250e6, v_min=0.6845275286529459,
                                 f_max_hz=1e9, v_max=1.3)


def default_vf_curve() -> VoltageFrequencyCurve:
    """The minimum-voltage curve implied by Table 1."""
    return _TABLE1_VF_CURVE


class VoltageSelector:
    """Per-processor minimum-voltage lookup with process-variation overrides."""

    def __init__(self, curve: VoltageFrequencyCurve | None = None) -> None:
        self._default = curve if curve is not None else default_vf_curve()
        self._overrides: dict[tuple[int, int], VoltageFrequencyCurve] = {}
        # Per-curve memo: ladders have ~16 rungs, so a pass over hundreds of
        # processors asks for the same handful of voltages.  Keyed by curve
        # identity; cleared whenever the curve set changes, so an id() can
        # never outlive the curve it names.
        self._cache: dict[tuple[int, float], float] = {}

    def set_processor_curve(self, node_id: int, proc_id: int,
                            curve: VoltageFrequencyCurve) -> None:
        """Install a processor-specific curve (process variation)."""
        self._overrides[(node_id, proc_id)] = curve
        self._cache.clear()

    def min_voltage(self, node_id: int, proc_id: int, freq_hz: float) -> float:
        """The lowest stable voltage for this processor at this frequency."""
        curve = self._overrides.get((node_id, proc_id), self._default)
        key = (id(curve), freq_hz)
        v = self._cache.get(key)
        if v is None:
            v = self._cache[key] = curve.min_voltage(freq_hz)
        return v

    def rung_voltages(self, freqs_hz: Sequence[float]) -> list[float] | None:
        """Per-rung voltages when every processor shares the default curve,
        or ``None`` when process-variation overrides make the answer
        processor-dependent.  Lets a scheduling pass replace P per-processor
        lookups with one list indexed by rung."""
        if self._overrides:
            return None
        return [self.min_voltage(0, 0, f) for f in freqs_hz]
