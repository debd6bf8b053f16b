"""A stand-in for the Lava circuit-level power estimator (Devgan, [16]).

The paper generated Table 1 with Lava, a proprietary circuit tool that
determines "the shape of the power versus voltage and frequency curves for a
particular technology".  We cannot run Lava, so this module goes the other
way: it fits the Section 4.4 analytic model

    P(f) = C * V(f)^2 * f + B * V(f)^2,    V(f) = v0 + v1 * f   (clamped)

to an operating-point table by bounded least squares, recovering a physically
constrained (``C > 0``, ``B >= 0``, voltage rising with frequency) analytic
curve that reproduces the table closely and can be queried off-grid.  The
substitution is documented in DESIGN.md: the scheduler consumes only the
table, so any generator that reproduces Table 1's points preserves behaviour;
the analytic fit additionally supports the continuous-frequency extension and
ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..errors import PowerModelError
from .cmos import CmosPowerModel
from .table import FrequencyPowerTable
from .vf_curve import LinearVFCurve

__all__ = ["LavaFit", "fit_lava_model"]


@dataclass(frozen=True, slots=True)
class LavaFit:
    """Result of fitting the analytic model to an operating-point table."""

    cmos: CmosPowerModel
    vf_curve: LinearVFCurve
    #: Maximum relative error of the fit over the table points.
    max_rel_error: float
    #: Root-mean-square relative error over the table points.
    rms_rel_error: float

    def power_w(self, freq_hz: float) -> float:
        """Analytic max power at ``freq_hz`` using the fitted V(f)."""
        return self.cmos.power_w(freq_hz, self.vf_curve.min_voltage(freq_hz))

    def power_array_w(self, freqs_hz) -> np.ndarray:
        """Vectorised analytic power curve."""
        f = np.asarray(freqs_hz, dtype=float)
        v = self.vf_curve.min_voltage_array(f)
        return self.cmos.power_array_w(f, v)

    def regenerate_table(self, freqs_hz) -> FrequencyPowerTable:
        """Build a new operating-point table from the analytic curve —
        how our "Lava" produces Table 1-style artifacts for other ladders."""
        f = np.asarray(sorted(freqs_hz), dtype=float)
        p = self.power_array_w(f)
        return FrequencyPowerTable(list(zip(f.tolist(), p.tolist())))


def fit_lava_model(
    table: FrequencyPowerTable,
    *,
    v_max: float = constants.NOMINAL_VDD,
    v_floor_fraction: float = 0.45,
) -> LavaFit:
    """Fit ``C``, ``B`` and a linear ``V(f)`` to an operating-point table.

    Parameters
    ----------
    table:
        The target operating points (e.g. :data:`~repro.power.table.POWER4_TABLE`).
    v_max:
        Voltage at the table's top frequency — pinned to the platform's
        nominal 1.3 V so the fit has a physical anchor.
    v_floor_fraction:
        Lower bound on ``V(f_min)`` as a fraction of ``v_max``, keeping the
        optimiser away from unphysical near-zero voltages.

    Returns
    -------
    LavaFit
        Fitted model with fit-quality diagnostics.
    """
    if not 0.0 < v_floor_fraction < 1.0:
        raise PowerModelError("v_floor_fraction must lie in (0, 1)")
    # Imported here: the fit is the only scipy user, and no run needs it.
    from scipy.optimize import least_squares

    f = table.freqs_array()
    p = table.powers_array()
    f_min, f_max = table.f_min_hz, table.f_max_hz

    def unpack(x: np.ndarray) -> tuple[float, float, float]:
        c, b, v_min = x
        return float(c), float(b), float(v_min)

    def model(x: np.ndarray) -> np.ndarray:
        c, b, v_min = unpack(x)
        t = (f - f_min) / (f_max - f_min)
        v = v_min + t * (v_max - v_min)
        v2 = v * v
        return c * v2 * f + b * v2

    def residuals(x: np.ndarray) -> np.ndarray:
        # Relative residuals weight the small low-frequency powers fairly.
        return (model(x) - p) / p

    # Initial guess: all power active at nominal voltage.
    c0 = table.max_power_w / (v_max * v_max * f_max)
    x0 = np.array([c0, 1e-3, 0.7 * v_max])
    lower = np.array([1e-15, 0.0, v_floor_fraction * v_max])
    upper = np.array([np.inf, np.inf, v_max])
    result = least_squares(residuals, x0, bounds=(lower, upper))
    if not result.success:
        raise PowerModelError(f"Lava fit did not converge: {result.message}")

    c, b, v_min = unpack(result.x)
    rel = np.abs(residuals(result.x))
    fit = LavaFit(
        cmos=CmosPowerModel(capacitance_f=c, leakage_s=b),
        vf_curve=LinearVFCurve(
            f_min_hz=f_min, v_min=v_min, f_max_hz=f_max, v_max=v_max
        ),
        max_rel_error=float(rel.max()),
        rms_rel_error=float(np.sqrt(np.mean(rel * rel))),
    )
    return fit
