"""Voltage selection (step 3)."""

import pytest

from repro.core.voltage import VoltageSelector, default_vf_curve
from repro.power.vf_curve import LinearVFCurve
from repro.units import ghz, mhz


class TestVoltageSelector:
    def test_default_curve_cached_and_plausible(self):
        curve = default_vf_curve()
        assert curve is default_vf_curve()
        assert curve.min_voltage(ghz(1.0)) == pytest.approx(1.3, abs=0.01)
        assert curve.min_voltage(mhz(250)) < curve.min_voltage(ghz(1.0))

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
