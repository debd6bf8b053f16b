"""Budgets, compliance monitoring and energy accounting."""

import pytest

from repro.errors import SimulationError
from repro.power.budget import ComplianceMonitor, PowerBudget
from repro.power.energy import EnergyAccumulator, EnergyLedger


class TestPowerBudget:
    def test_planning_limit_applies_margin(self):
        b = PowerBudget(limit_w=300.0, margin=0.1)
        assert b.planning_limit_w == pytest.approx(270.0)

    def test_allows_vs_plans_for(self):
        b = PowerBudget(limit_w=300.0, margin=0.1)
        assert b.allows(280.0) and not b.plans_for(280.0)
        assert b.plans_for(260.0)

    def test_with_limit_keeps_margin(self):
        b = PowerBudget(limit_w=300.0, margin=0.1).with_limit(200.0)
        assert b.limit_w == 200.0 and b.margin == 0.1

    def test_bad_margin_rejected(self):
        with pytest.raises(Exception):
            PowerBudget(limit_w=300.0, margin=1.0)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(Exception):
            PowerBudget(limit_w=0.0)


class TestComplianceMonitor:
    def test_records_and_classifies(self):
        m = ComplianceMonitor(PowerBudget(limit_w=480.0))
        assert m.observe(0.0, 400.0).compliant
        rec = m.observe(0.1, 500.0)
        assert not rec.compliant and rec.excess_w == pytest.approx(20.0)
        assert m.violation_fraction == pytest.approx(0.5)
        assert m.max_excess_w() == pytest.approx(20.0)

    def test_response_time_after_budget_change(self):
        m = ComplianceMonitor(PowerBudget(limit_w=960.0))
        m.observe(0.0, 746.0)
        m.set_budget(PowerBudget(limit_w=480.0), 1.0)
        m.observe(1.01, 746.0)
        m.observe(1.05, 470.0)
        assert m.response_time_s() == pytest.approx(0.05)

    def test_response_time_none_without_change(self):
        m = ComplianceMonitor(PowerBudget(limit_w=480.0))
        m.observe(0.0, 400.0)
        assert m.response_time_s() is None

    def test_response_time_none_if_never_compliant(self):
        m = ComplianceMonitor(PowerBudget(limit_w=480.0))
        m.set_budget(PowerBudget(limit_w=100.0), 0.0)
        m.observe(0.1, 400.0)
        assert m.response_time_s() is None

    def test_settling_allowance_grace_periods_violations(self):
        m = ComplianceMonitor(PowerBudget(limit_w=480.0),
                              settling_allowance_s=0.2)
        m.set_budget(PowerBudget(limit_w=480.0), 1.0)
        m.observe(1.1, 700.0)   # graced
        m.observe(1.5, 700.0)   # violation
        assert len(m.violations) == 1
        assert m.violations[0].time_s == pytest.approx(1.5)


class TestEnergyAccumulator:
    def test_piecewise_constant_integration(self):
        acc = EnergyAccumulator()
        acc.advance_to(2.0, 100.0)
        acc.advance_to(3.0, 50.0)
        assert acc.energy_j == pytest.approx(250.0)
        assert acc.elapsed_s == pytest.approx(3.0)
        assert acc.average_power_w == pytest.approx(250.0 / 3.0)

    def test_zero_duration_before_time_passes(self):
        assert EnergyAccumulator().average_power_w == 0.0

    def test_time_reversal_rejected(self):
        acc = EnergyAccumulator()
        acc.advance_to(1.0, 10.0)
        with pytest.raises(SimulationError):
            acc.advance_to(0.5, 10.0)


class TestEnergyLedger:
    def test_accounts_share_timeline(self):
        ledger = EnergyLedger()
        ledger.advance_to(1.0, {"core0": 140.0, "non_cpu": 186.0})
        ledger.advance_to(2.0, {"core0": 57.0})
        assert ledger.energy_of("core0") == pytest.approx(197.0)
        # non_cpu advanced at zero power in the second interval.
        assert ledger.energy_of("non_cpu") == pytest.approx(186.0)
        assert ledger.total_energy_j == pytest.approx(197.0 + 186.0)

    def test_missing_account_reads_zero(self):
        assert EnergyLedger().energy_of("nope") == 0.0

    def test_normalisation_against_baseline(self):
        fvsst, base = EnergyLedger(), EnergyLedger()
        fvsst.advance_to(1.0, {"core0": 57.0})
        base.advance_to(1.0, {"core0": 140.0})
        ratios = fvsst.normalized_against(base)
        assert ratios["core0"] == pytest.approx(57.0 / 140.0)

    def test_normalisation_needs_baseline_energy(self):
        fvsst, base = EnergyLedger(), EnergyLedger()
        fvsst.advance_to(1.0, {"core0": 57.0})
        with pytest.raises(SimulationError):
            fvsst.normalized_against(base)
