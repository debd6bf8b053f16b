#!/usr/bin/env python3
"""Every power-management policy on the same machine, same budget.

Four applications on the four CPUs, a 294 W processor budget, six
policies: no management (the reference), fvsst, uniform scaling, node
power-down, utilization stepping, and consolidation-by-migration.  Scored
on delivered throughput, power compliance, and (where applicable)
migration count — the whole argument of the paper in one chart.

Run:  python examples/policy_shootout.py
"""

from repro import (
    DaemonConfig,
    FvsstDaemon,
    MachineConfig,
    SMPMachine,
    Simulation,
    profile_by_name,
)
from repro.analysis import bar_chart
from repro.core import ConsolidationGovernor
from repro.scenario import make_governor
from repro.sim import CoreConfig

BUDGET_W = 294.0
DURATION_S = 8.0
APPS = ("gzip", "gap", "mcf", "health")
POLICIES = ("none", "fvsst", "uniform", "powerdown", "utilization",
            "consolidation")


def run(policy: str, seed: int) -> dict:
    machine = SMPMachine(MachineConfig(
        num_cores=4,
        core_config=CoreConfig(latency_jitter_sigma=0.0),
    ), seed=seed)
    for i, app in enumerate(APPS):
        machine.assign(i, profile_by_name(app).job(loop=True))
    sim = Simulation(machine)

    migrations = 0
    limit = None if policy == "none" else BUDGET_W
    if policy == "consolidation":
        governor = ConsolidationGovernor(machine, power_limit_w=limit)
    elif policy == "fvsst":
        governor = FvsstDaemon(machine, DaemonConfig(power_limit_w=limit),
                               seed=seed + 1)
    else:
        governor = make_governor(policy, machine, power_limit_w=limit,
                                 seed=seed + 1)
    governor.attach(sim)

    peaks = []
    sim.every(0.1, lambda t: peaks.append(machine.cpu_power_w()))
    sim.run_for(DURATION_S)
    if isinstance(governor, ConsolidationGovernor):
        migrations = governor.migrations
    return {
        "work": sum(c.counters.instructions for c in machine.cores),
        "peak_w": max(peaks[2:]),   # skip the startup transient
        "migrations": migrations,
    }


def main() -> None:
    results = {p: run(p, seed=31 + i) for i, p in enumerate(POLICIES)}
    reference = results["none"]["work"]

    print(f"four applications, {BUDGET_W:.0f} W processor budget, "
          f"{DURATION_S:.0f} s\n")
    print(f"{'policy':<14} {'throughput':>10} {'peak W':>8} "
          f"{'compliant':>10} {'migrations':>11}")
    for policy, r in results.items():
        compliant = ("n/a" if policy == "none"
                     else "yes" if r["peak_w"] <= BUDGET_W + 1e-6 else "NO")
        print(f"{policy:<14} {r['work'] / reference:>9.1%} "
              f"{r['peak_w']:>8.0f} {compliant:>10} "
              f"{r['migrations']:>11}")

    print()
    managed = [p for p in POLICIES if p != "none"]
    print(bar_chart(
        managed,
        [results[p]["work"] / reference for p in managed],
        title="throughput under the budget (fraction of unmanaged)",
        width=40,
    ))
    print("\nfvsst keeps the most throughput inside the budget because it "
          "slows saturated (memory-bound) processors where the watts are "
          "free — the paper's thesis.")


if __name__ == "__main__":
    main()
