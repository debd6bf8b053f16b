"""The vectorised scheduler reproduces the literal Figure 3 loops bit-for-bit.

``FrequencyVoltageScheduler`` evaluates step 1 as one (P x F) loss matrix
and step 2 through a heap; this file re-implements the pre-vectorisation
algorithm — pointwise epsilon-constrained selection, rescanning greedy
reduction — and asserts *exact* float equality of every assignment field
on randomized 256-processor populations (idle signals, missing
signatures, tight/infeasible budgets, frequency ceilings, per-part power
scales, per-node limits and SLO floors included).
"""

import numpy as np
import pytest

from repro.core.scheduler import FrequencyVoltageScheduler, ProcessorView
from repro.core.voltage import VoltageSelector
from repro.model.ipc import WorkloadSignature
from repro.power.table import POWER4_TABLE, WORKED_EXAMPLE_TABLE
from repro.power.vf_curve import LinearVFCurve
from repro.units import ghz


def _reference_schedule(sched, views, power_limit_w, max_freq_hz=None,
                        min_freqs_hz=None, node_limits_w=None):
    """Figure 3 as literal per-processor loops (the pre-vectorised path).

    Uses only the scheduler's *pointwise* hooks (``epsilon_constrained``,
    ``predicted_loss``, ``power_for``) so any drift between the scalar
    model and the matrix path fails the comparison.  SLO floors are
    quantised up, win over the idle pin and the ceiling, and bound every
    reduction; each node limit runs its own rescanning loop over that
    node's processors, in node-id order, before the global loop.
    """
    table = sched.table
    freqs_hz = table.freqs_hz
    idx, eps_idx = [], []
    for v in views:
        if v.idle_signaled:
            idx.append(0)
            eps_idx.append(0)
            continue
        f, _ = sched.epsilon_constrained(v.signature)
        eps_idx.append(table.index_of(f))
        idx.append(eps_idx[-1])
    if max_freq_hz is not None:
        cap = table.index_of(table.quantize_down(max_freq_hz))
        idx = [min(k, cap) for k in idx]
    floors = min_freqs_hz or {}
    lo = [table.index_of(table.quantize_up(floors[v.node_id]))
          if v.node_id in floors else 0 for v in views]
    idx = [max(k, f) for k, f in zip(idx, lo)]

    def reduce(members, limit_w):
        """One rescanning step-2 loop over ``views[i]`` for ``members``."""
        def total():
            return sum(
                sched.power_for(views[i].node_id, views[i].proc_id,
                                freqs_hz[idx[i]])
                for i in members
            )
        steps = 0
        t = total()
        while t > limit_w:
            candidates = []
            for i in members:
                v = views[i]
                k = idx[i]
                if k <= lo[i]:
                    continue
                loss = 0.0 if v.idle_signaled else sched.predicted_loss(
                    v.signature, freqs_hz[k - 1])
                candidates.append((loss, v.node_id, v.proc_id, i))
            if not candidates:
                return steps, True
            _, _, _, i = min(candidates)
            idx[i] -= 1
            steps += 1
            t = total()
        return steps, False

    steps = 0
    infeasible = False
    passes = [([i for i, v in enumerate(views) if v.node_id == node_id],
               limit_w)
              for node_id, limit_w in sorted((node_limits_w or {}).items())]
    if power_limit_w is not None:
        passes.append((list(range(len(views))), power_limit_w))
    for members, limit_w in passes:
        pass_steps, pass_infeasible = reduce(members, limit_w)
        steps += pass_steps
        infeasible = infeasible or pass_infeasible

    assignments = []
    for i, v in enumerate(views):
        f = freqs_hz[idx[i]]
        loss = 0.0 if v.idle_signaled else sched.predicted_loss(
            v.signature, f)
        assignments.append((
            v.node_id, v.proc_id, f,
            sched.voltages.min_voltage(v.node_id, v.proc_id, f),
            sched.power_for(v.node_id, v.proc_id, f),
            loss,
            freqs_hz[eps_idx[i]],
        ))
    total_w = sum(a[4] for a in assignments)
    return assignments, total_w, steps, infeasible


def _random_views(rng, n):
    """A mixed population: CPU/memory-bound, missing data, idle signals."""
    views = []
    for i in range(n):
        roll = rng.uniform()
        if roll < 0.1:
            sig = None
        else:
            ratio = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
            c0 = float(rng.uniform(0.4, 2.0))
            sig = WorkloadSignature(core_cpi=c0,
                                    mem_time_per_instr_s=c0 / ratio / ghz(1.0))
        views.append(ProcessorView(
            node_id=i // 4, proc_id=i % 4, signature=sig,
            idle_signaled=bool(rng.uniform() < 0.1),
        ))
    return views


def _random_limits(rng, views):
    """Per-part power scales in 0.9-1.25, limits on about a third of the
    nodes (some below their own floor power), floors on about a quarter."""
    scales = {(v.node_id, v.proc_id): float(rng.uniform(0.9, 1.25))
              for v in views}
    node_limits, floors = {}, {}
    for node_id in sorted({v.node_id for v in views}):
        if rng.uniform() < 1 / 3:
            node_limits[node_id] = float(
                rng.uniform(0.05, 1.0)) * 4 * POWER4_TABLE.max_power_w
        if rng.uniform() < 0.25:
            floors[node_id] = float(rng.uniform(POWER4_TABLE.f_min_hz,
                                                POWER4_TABLE.f_max_hz))
    return scales, node_limits, floors


def _assert_matches_reference(sched, views, limit, max_freq_hz=None,
                              min_freqs_hz=None, node_limits_w=None):
    expected, total_w, steps, infeasible = _reference_schedule(
        sched, views, limit, max_freq_hz, min_freqs_hz, node_limits_w)
    got = sched.schedule(views, power_limit_w=limit,
                         node_limits_w=node_limits_w,
                         max_freq_hz=max_freq_hz,
                         min_freqs_hz=min_freqs_hz)
    actual = [(a.node_id, a.proc_id, a.freq_hz, a.voltage, a.power_w,
               a.predicted_loss, a.eps_freq_hz) for a in got.assignments]
    assert actual == expected          # exact — no tolerances anywhere
    assert got.total_power_w == total_w
    assert got.reduction_steps == steps
    assert got.infeasible == infeasible


PEAK_256 = 256 * POWER4_TABLE.max_power_w


@pytest.mark.parametrize("limit", [
    None,                 # step 1 only
    0.85 * PEAK_256,      # loose: few reductions
    0.45 * PEAK_256,      # tight: deep into the ladder
    256 * POWER4_TABLE.min_power_w * 1.02,   # barely feasible floor
    256 * POWER4_TABLE.min_power_w * 0.5,    # infeasible: floor schedule
])
def test_random_256_views_match_reference(limit):
    rng = np.random.default_rng(20050406)
    sched = FrequencyVoltageScheduler(POWER4_TABLE)
    _assert_matches_reference(sched, _random_views(rng, 256), limit)


def test_random_views_with_frequency_ceiling_match_reference():
    rng = np.random.default_rng(7)
    sched = FrequencyVoltageScheduler(POWER4_TABLE)
    _assert_matches_reference(sched, _random_views(rng, 64),
                              0.6 * 64 * POWER4_TABLE.max_power_w,
                              max_freq_hz=ghz(0.8))


def test_worked_example_ladder_matches_reference():
    rng = np.random.default_rng(11)
    sched = FrequencyVoltageScheduler(WORKED_EXAMPLE_TABLE)
    peak = 32 * WORKED_EXAMPLE_TABLE.max_power_w
    _assert_matches_reference(sched, _random_views(rng, 32), 0.7 * peak)


@pytest.mark.parametrize("limit,max_freq_hz", [
    (None, None),                                    # step 1 and node limits
    (0.85 * PEAK_256, None),                         # loose
    (0.45 * PEAK_256, None),                         # tight
    (0.6 * PEAK_256, ghz(0.8)),                      # tight, with a ceiling
    (256 * POWER4_TABLE.min_power_w * 0.5, None),    # infeasible
])
def test_random_256_scaled_parts_with_limits_and_floors_match_reference(
        limit, max_freq_hz):
    rng = np.random.default_rng(20051017)
    views = _random_views(rng, 256)
    scales, node_limits, floors = _random_limits(rng, views)
    sched = FrequencyVoltageScheduler(POWER4_TABLE, power_scales=scales)
    _assert_matches_reference(sched, views, limit, max_freq_hz=max_freq_hz,
                              min_freqs_hz=floors, node_limits_w=node_limits)


class TestVoltageSelectorCache:
    def test_repeated_lookups_hit_the_memo(self):
        sel = VoltageSelector()
        a = sel.min_voltage(0, 0, POWER4_TABLE.f_max_hz)
        b = sel.min_voltage(3, 1, POWER4_TABLE.f_max_hz)
        assert a == b == sel._default.min_voltage(POWER4_TABLE.f_max_hz)

    def test_install_override_invalidates_cache(self):
        sel = VoltageSelector()
        before = sel.min_voltage(0, 0, POWER4_TABLE.f_max_hz)
        curve = LinearVFCurve(f_min_hz=POWER4_TABLE.f_min_hz, v_min=0.9,
                              f_max_hz=POWER4_TABLE.f_max_hz, v_max=1.1)
        sel.set_processor_curve(0, 0, curve)
        assert sel.min_voltage(0, 0, POWER4_TABLE.f_max_hz) == 1.1
        # Other processors still use the default curve.
        assert sel.min_voltage(0, 1, POWER4_TABLE.f_max_hz) == before
