"""Power supplies and the Section 2 cascade scenario."""

import pytest

from repro.errors import CascadeFailureError, SimulationError
from repro.power.supply import PowerSupply, SupplyBank


def bank(deadline=1.0, **kwargs) -> SupplyBank:
    return SupplyBank(
        supplies=[PowerSupply(480.0, name="psu0"),
                  PowerSupply(480.0, name="psu1")],
        cascade_deadline_s=deadline, **kwargs,
    )


class TestCapacity:
    def test_example_configuration(self):
        b = SupplyBank.example_p630()
        assert b.capacity_w == 960.0
        assert len(b.online) == 2

    def test_failure_halves_capacity(self):
        b = bank()
        assert b.fail_supply(0) == 480.0
        assert len(b.online) == 1

    def test_restore_recovers_capacity(self):
        b = bank()
        b.fail_supply(0)
        assert b.restore_supply(0) == 960.0

    def test_fail_all_then_dark(self):
        b = bank()
        b.fail_supply(0)
        b.fail_supply(0)
        assert b.all_failed
        with pytest.raises(SimulationError):
            b.fail_supply(0)

    def test_restore_without_failure_raises(self):
        with pytest.raises(SimulationError):
            bank().restore_supply(0)

    def test_headroom(self):
        b = bank()
        assert b.headroom_w(746.0) == pytest.approx(214.0)
        b.fail_supply(0)
        assert b.headroom_w(746.0) == pytest.approx(-266.0)


class TestCascade:
    def test_no_cascade_within_capacity(self):
        b = bank()
        for t in (0.0, 1.0, 10.0):
            assert b.observe(t, 900.0) is False
        assert b.cascade_count == 0

    def test_overload_tolerated_inside_deadline(self):
        b = bank()
        b.fail_supply(0)
        assert b.observe(0.0, 746.0) is False   # episode starts
        assert b.observe(0.9, 746.0) is False   # still inside DeltaT
        assert b.cascade_count == 0

    def test_cascade_after_deadline(self):
        b = bank(raise_on_cascade=False)
        b.fail_supply(0)
        b.observe(0.0, 746.0)
        assert b.observe(1.05, 746.0) is True
        assert b.cascade_count == 1
        assert b.all_failed

    def test_cascade_raises_when_configured(self):
        b = bank()
        b.fail_supply(0)
        b.observe(0.0, 746.0)
        with pytest.raises(CascadeFailureError) as err:
            b.observe(1.2, 746.0)
        assert err.value.time_s == pytest.approx(1.2)

    def test_recovery_resets_the_episode(self):
        b = bank(raise_on_cascade=False)
        b.fail_supply(0)
        b.observe(0.0, 746.0)      # overload begins
        b.observe(0.5, 450.0)      # brought under capacity in time
        b.observe(0.6, 746.0)      # new overload episode
        assert b.observe(1.4, 746.0) is False  # only 0.8 s into episode 2
        assert b.cascade_count == 0

    def test_dark_system_observation_is_terminal_noop(self):
        b = bank(raise_on_cascade=False)
        b.fail_supply(0)
        b.fail_supply(0)
        assert b.observe(5.0, 100.0) is True
        assert b.cascade_count == 0  # nothing further failed


# -- supply-span planning ---------------------------------------------------------


def bank_state(bank):
    return (bank.overload_since_s, bank.cascade_count,
            [s.failed for s in bank.supplies])


def replay_plan(bank, times, demand):
    n_exec, actions, _ = bank.plan_constant_span(times, demand)
    for j in actions:
        bank.observe(times[j], demand)
    return n_exec


class TestPlanConstantSpan:
    TIMES = [round(0.01 * i, 10) for i in range(1, 301)]   # 3 s of 10 ms chunks

    def check(self, make_bank, demand, times=TIMES):
        lit = make_bank()
        plan = make_bank()
        raised_lit = raised_plan = False
        try:
            for t in times:
                lit.observe(t, demand)
        except CascadeFailureError:
            raised_lit = True
        _, _, raises = make_bank().plan_constant_span(times, demand)
        try:
            replay_plan(plan, times, demand)
        except CascadeFailureError:
            raised_plan = True
        assert raised_lit == raised_plan
        assert raises == raised_lit
        assert bank_state(lit) == bank_state(plan)

    def test_below_capacity(self):
        self.check(lambda: SupplyBank.example_p630(raise_on_cascade=False),
                   400.0)

    def test_overload_cascades_to_dark(self):
        def make():
            b = SupplyBank.example_p630(raise_on_cascade=False)
            b.fail_supply(0)
            return b
        self.check(make, 746.0)

    def test_overload_with_raise(self):
        def make():
            b = SupplyBank.example_p630()
            b.fail_supply(0)
            return b
        self.check(make, 746.0)

    def test_raise_cuts_span_at_cascade_boundary(self):
        b = SupplyBank.example_p630()
        b.fail_supply(0)
        n_exec, actions, raises = b.plan_constant_span(self.TIMES, 746.0)
        assert n_exec < len(self.TIMES)
        assert actions[-1] == n_exec - 1
        assert raises
        # Planning is pure: nothing moved yet.
        assert bank_state(b) == (None, 0, [True, False])

    def test_raise_on_the_last_boundary_is_reported(self):
        """A raising cascade that lands on the span's last boundary cuts
        nothing (``n_exec`` covers every chunk), yet the replayed observe
        still raises: ``raises`` says so."""
        def make():
            b = SupplyBank.example_p630()
            b.fail_supply(0)
            return b

        _, actions, _ = make().plan_constant_span(self.TIMES, 746.0)
        times = self.TIMES[:actions[-1] + 1]
        n_exec, last, raises = make().plan_constant_span(times, 746.0)
        assert (n_exec, last, raises) == (len(times), actions, True)
        self.check(make, 746.0, times)
        # One boundary past the deadline alone: a one-chunk span raises.
        b = make()
        b.observe(0.5, 746.0)
        assert b.plan_constant_span([1.5], 746.0) == (1, [0], True)
        # The same plans on a bank that only counts cascades never raise.
        b = SupplyBank.example_p630(raise_on_cascade=False)
        b.fail_supply(0)
        assert b.plan_constant_span(times, 746.0)[2] is False

    def test_mid_episode_resume(self):
        """A plan starting inside a running overload episode honours the
        already-elapsed deadline time."""
        def make():
            b = SupplyBank.example_p630(raise_on_cascade=False)
            b.fail_supply(0)
            b.observe(0.005, 746.0)      # episode opened before the span
            return b
        self.check(make, 746.0)

    def test_dark_bank_is_all_no_ops(self):
        b = SupplyBank.example_p630(raise_on_cascade=False)
        b.fail_supply(0)
        b.fail_supply(0)
        n_exec, actions, raises = b.plan_constant_span(self.TIMES, 500.0)
        assert n_exec == len(self.TIMES)
        assert actions == []
        assert not raises
