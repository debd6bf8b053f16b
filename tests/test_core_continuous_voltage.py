"""Voltage selection (step 3)."""

import pytest

from repro.core.voltage import VoltageSelector, default_vf_curve
from repro.power.lava import fit_lava_model
from repro.power.table import POWER4_TABLE
from repro.power.vf_curve import LinearVFCurve
from repro.units import ghz, mhz


class TestVoltageSelector:
    def test_default_curve_cached_and_plausible(self):
        curve = default_vf_curve()
        assert curve is default_vf_curve()
        assert curve.min_voltage(ghz(1.0)) == pytest.approx(1.3, abs=0.01)
        assert curve.min_voltage(mhz(250)) < curve.min_voltage(ghz(1.0))

    def test_default_curve_is_table1_fit(self):
        # The frozen curve is the Lava fit of Table 1.  The anchors are
        # exact; the fitted v_min may differ in its last bits under
        # another scipy.
        frozen, fitted = default_vf_curve(), fit_lava_model(POWER4_TABLE).vf_curve
        assert (frozen.f_min_hz, frozen.f_max_hz, frozen.v_max) == \
            (fitted.f_min_hz, fitted.f_max_hz, fitted.v_max)
        assert frozen.v_min == pytest.approx(fitted.v_min, rel=1e-9)

    def test_per_processor_override(self):
        selector = VoltageSelector()
        weak_part = LinearVFCurve(f_min_hz=mhz(250), v_min=0.9,
                                  f_max_hz=ghz(1.0), v_max=1.4)
        selector.set_processor_curve(0, 2, weak_part)
        normal = selector.min_voltage(0, 0, ghz(1.0))
        weak = selector.min_voltage(0, 2, ghz(1.0))
        assert weak == pytest.approx(1.4)
        assert normal == pytest.approx(1.3, abs=0.01)

    def test_override_scoped_to_processor(self):
        selector = VoltageSelector()
        selector.set_processor_curve(
            1, 0, LinearVFCurve(f_min_hz=mhz(250), v_min=0.9,
                                f_max_hz=ghz(1.0), v_max=1.4))
        assert selector.min_voltage(0, 0, ghz(1.0)) == pytest.approx(
            1.3, abs=0.01)
