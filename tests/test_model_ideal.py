"""The continuous f_ideal closed form (Section 5)."""

import pytest

from repro.core.scheduler import FrequencyVoltageScheduler
from repro.errors import ModelError
from repro.model.ideal import ideal_frequency
from repro.model.ipc import WorkloadSignature
from repro.model.perf import perf
from repro.power.table import POWER4_TABLE
from repro.units import ghz


class TestIdealFrequency:
    def test_cpu_bound_pinned_at_fmax(self):
        # IPC(f_max) > 1 triggers the paper's heuristic.
        sig = WorkloadSignature(core_cpi=0.6, mem_time_per_instr_s=1e-10)
        assert ideal_frequency(sig, ghz(1.0), epsilon=0.05) == ghz(1.0)

    def test_closed_form_inverts_the_loss_equation(self, mem_signature):
        # At f_ideal, performance is exactly (1 - epsilon) of Perf(f_max).
        eps = 0.04
        f_max = ghz(1.0)
        f_ideal = ideal_frequency(mem_signature, f_max, epsilon=eps,
                                  ipc_threshold=float("inf"))
        assert f_ideal < f_max
        assert perf(mem_signature, f_ideal) == pytest.approx(
            (1 - eps) * perf(mem_signature, f_max)
        )

    def test_larger_epsilon_gives_lower_frequency(self, mem_signature):
        kwargs = dict(ipc_threshold=float("inf"))
        f_small = ideal_frequency(mem_signature, ghz(1.0), epsilon=0.02,
                                  **kwargs)
        f_large = ideal_frequency(mem_signature, ghz(1.0), epsilon=0.10,
                                  **kwargs)
        assert f_large < f_small

    def test_clamped_to_f_min(self, mem_signature):
        f = ideal_frequency(mem_signature, ghz(1.0), epsilon=0.5,
                            f_min_hz=ghz(0.6), ipc_threshold=float("inf"))
        assert f == ghz(0.6)

    def test_clamped_to_f_max_for_nearly_pure_cpu(self):
        # A low-IPC but memory-free workload: the formula would ask for a
        # frequency above f_max to hit the target; must clamp down.
        sig = WorkloadSignature(core_cpi=2.0, mem_time_per_instr_s=1e-13)
        f = ideal_frequency(sig, ghz(1.0), epsilon=0.01,
                            ipc_threshold=float("inf"))
        assert f <= ghz(1.0)

    def test_mcf_like_lands_near_650(self):
        # Ratio 0.075 was placed to desire 650 MHz at epsilon = 4%.
        sig = WorkloadSignature(core_cpi=0.65,
                                mem_time_per_instr_s=0.65 / 0.075 / ghz(1.0))
        f = ideal_frequency(sig, ghz(1.0), epsilon=0.04,
                            ipc_threshold=float("inf"))
        assert ghz(0.60) < f <= ghz(0.66)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_degenerate_epsilon_rejected(self, mem_signature, eps):
        with pytest.raises(ModelError):
            ideal_frequency(mem_signature, ghz(1.0), epsilon=eps)

    def test_inverted_bounds_rejected(self, mem_signature):
        with pytest.raises(ModelError):
            ideal_frequency(mem_signature, ghz(0.5), epsilon=0.05,
                            f_min_hz=ghz(1.0))

    def test_threshold_disable_still_valid(self, cpu_signature):
        # Disabling the heuristic must still return a frequency in range.
        f = ideal_frequency(cpu_signature, ghz(1.0), epsilon=0.05,
                            f_min_hz=ghz(0.25),
                            ipc_threshold=float("inf"))
        assert ghz(0.25) <= f <= ghz(1.0)


def ratio_signature(ratio: float) -> WorkloadSignature:
    return WorkloadSignature(core_cpi=0.65,
                             mem_time_per_instr_s=0.65 / ratio / ghz(1.0))


def quantized_ideal(signature: WorkloadSignature) -> float:
    """Section 5's continuous ``f_ideal``, quantised up to Table 1."""
    return POWER4_TABLE.quantize_up(ideal_frequency(
        signature, POWER4_TABLE.f_max_hz, epsilon=0.04,
        f_min_hz=POWER4_TABLE.f_min_hz))


class TestClosedFormOnTheLadder:
    """The closed form stands in for step 1's per-rung loss scan."""

    def test_agrees_with_discrete_within_one_rung(self):
        discrete = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        for ratio in (5.0, 1.0, 0.3, 0.12, 0.075, 0.05):
            f_d, _ = discrete.epsilon_constrained(ratio_signature(ratio))
            f_c = quantized_ideal(ratio_signature(ratio))
            steps = abs(POWER4_TABLE.index_of(f_d)
                        - POWER4_TABLE.index_of(f_c))
            assert steps <= 1, f"ratio {ratio}: {f_d} vs {f_c}"

    def test_quantize_up_never_exceeds_epsilon(self):
        sched = FrequencyVoltageScheduler(POWER4_TABLE, epsilon=0.04)
        for ratio in (1.0, 0.3, 0.12, 0.075):
            signature = ratio_signature(ratio)
            loss = sched.predicted_loss(signature, quantized_ideal(signature))
            assert loss < 0.04 + 1e-9
