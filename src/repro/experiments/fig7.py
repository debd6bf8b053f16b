"""Figure 7: phases under progressively tighter power limits.

The 100% + 75% CPU-intensity two-phase configuration at budgets of 140 W,
75 W and 35 W.  At full power both phases get what they need; at 75 W
(750 MHz cap) the 100% phase can no longer be scheduled losslessly while
the 75% phase still can; at 35 W (500 MHz cap) both phases pin at the
power-constrained frequency.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, SeriesResult, TableResult
from ..core.daemon import DaemonConfig
from ..scenario import Scenario
from ..sim.rng import spawn_seeds
from ..units import to_mhz
from ..workloads.synthetic import SyntheticBenchmark
from .fig6 import phase_throughputs

__all__ = ["run", "CAPS_W"]

CAPS_W = (140.0, 75.0, 35.0)


def _residency_modes(cap_w: float, *, seed: int, fast: bool
                     ) -> tuple[float, float]:
    """Modal scheduled frequency during each phase (MHz), from one looping
    run — shows where each phase lands under the cap."""
    phase_s = 0.5 if fast else 1.2
    bench = SyntheticBenchmark(
        intensity_a=1.00, intensity_b=0.75,
        duration_a_s=phase_s, duration_b_s=phase_s,
        include_init_exit=False,
    )
    log = (Scenario(num_cores=1, seed=seed)
           .with_job(0, bench.job(loop=True))
           .with_governor("fvsst", power_limit_w=cap_w,
                          daemon_config=DaemonConfig(daemon_core=0))
           .run(6 * phase_s)).log

    # Split scheduling decisions by measured IPC level: the 100% phase has
    # higher IPC than the 75% phase.
    pairs = log.prediction_pairs(0, 0)
    t_f, freqs = log.frequency_series(0, 0)
    measured = {t: m for t, _p, m in pairs}
    per_decision = [(t, f, measured.get(t)) for t, f in zip(t_f, freqs)]
    scored = [(f, m) for _t, f, m in per_decision if m is not None]
    if not scored:
        return float("nan"), float("nan")
    median_ipc = sorted(m for _f, m in scored)[len(scored) // 2]
    hi = [f for f, m in scored if m >= median_ipc]
    lo = [f for f, m in scored if m < median_ipc]

    def mode(xs):
        return max(set(xs), key=xs.count) if xs else float("nan")

    return to_mhz(mode(hi)), to_mhz(mode(lo))


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Figure 7."""
    seeds = spawn_seeds(seed, 2 * len(CAPS_W))
    perf_a, perf_b, mode_a, mode_b = [], [], [], []
    for i, cap in enumerate(CAPS_W):
        t = phase_throughputs(1.00, 0.75, cap, seed=seeds[2 * i], fast=fast)
        perf_a.append(t["phase-a"])
        perf_b.append(t["phase-b"])
        hi_mode, lo_mode = _residency_modes(cap, seed=seeds[2 * i + 1],
                                            fast=fast)
        mode_a.append(hi_mode)
        mode_b.append(lo_mode)

    fig = SeriesResult(
        x_label="power_limit_w",
        x=tuple(int(c) for c in CAPS_W),
        series={
            "phase100_normalised": tuple(v / perf_a[0] for v in perf_a),
            "phase75_normalised": tuple(v / perf_b[0] for v in perf_b),
        },
        title="Figure 7: 100%/75% phases under power limits",
    )
    modes = TableResult(
        headers=("power_limit_w", "phase100_mode_mhz", "phase75_mode_mhz"),
        rows=tuple(
            (int(c), round(a, 0), round(b, 0))
            for c, a, b in zip(CAPS_W, mode_a, mode_b)
        ),
        title="Modal scheduled frequency per phase",
    )
    return ExperimentResult(
        experiment_id="fig7",
        description="phase scheduling under 140/75/35 W budgets",
        series=[fig],
        tables=[modes],
        notes=[
            "At 75 W the 100% phase pins at the 750 MHz cap and loses "
            "performance while the 75% phase still fits; at 35 W both pin "
            "at 500 MHz — the paper's Figure 7 progression.",
        ],
    )
