"""Figure 8: percentage of time at each frequency.

Each application model runs under fvsst at frequency caps of 1000 MHz
(unconstrained), 750 MHz (75 W) and 500 MHz (35 W); the figure is the
distribution of scheduling intervals over frequencies.  CPU-bound
applications split between 1000/950 MHz unconstrained and collapse onto the
cap when constrained; memory-bound applications centre on 650 MHz and only
move when the cap falls below their saturation point.
"""

from __future__ import annotations

from ..analysis.report import ExperimentResult, TableResult
from ..power.table import POWER4_TABLE
from ..scenario import Scenario
from ..sim.rng import spawn_seeds
from ..units import mhz, to_mhz
from ..workloads.profiles import ALL_PROFILES

__all__ = ["run", "CAP_FREQS_MHZ", "residency_for"]

#: The paper's three cap settings, expressed as the max frequency they buy.
CAP_FREQS_MHZ = (1000, 750, 500)


def _cap_to_power(cap_mhz: int) -> float:
    return POWER4_TABLE.power_at(mhz(cap_mhz))


def residency_for(app: str, cap_mhz: int, *, seed: int,
                  fast: bool) -> dict[int, float]:
    """Scheduled-frequency residency (MHz -> fraction) for one run."""
    log = (Scenario(num_cores=1, seed=seed)
           .with_job(0, ALL_PROFILES[app].job(body_repeats=1 if fast else 2))
           .with_governor("fvsst", power_limit_w=_cap_to_power(cap_mhz))
           .run_to_completion()).log
    res = log.frequency_residency(0, 0)
    return {int(to_mhz(f)): share for f, share in res.items()}


def run(seed: int = 2005, fast: bool = False) -> ExperimentResult:
    """Regenerate Figure 8."""
    apps = tuple(ALL_PROFILES)
    seeds = spawn_seeds(seed, len(apps) * len(CAP_FREQS_MHZ))
    tables = []
    scalars: dict[str, float] = {}
    i = 0
    for app in apps:
        rows = []
        for cap in CAP_FREQS_MHZ:
            res = residency_for(app, cap, seed=seeds[i], fast=fast)
            i += 1
            for freq_mhz, share in sorted(res.items()):
                rows.append((cap, freq_mhz, round(share, 3)))
            scalars[f"{app}@{cap}_modal_mhz"] = max(res, key=res.get)
        tables.append(TableResult(
            headers=("cap_mhz", "frequency_mhz", "time_fraction"),
            rows=tuple(rows),
            title=f"Figure 8 ({app}): time at each frequency",
        ))
    return ExperimentResult(
        experiment_id="fig8",
        description="frequency residency per application per cap",
        tables=tables,
        scalars=scalars,
        notes=[
            "gzip/gap: mass at 1000/950 MHz unconstrained, clipped onto "
            "750 then 500 MHz as the cap tightens; mcf/health: mass near "
            "650 MHz, unaffected at 750 MHz, clipped only at 500 MHz — the "
            "paper's Figure 8 structure.",
        ],
    )
