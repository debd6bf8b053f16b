"""Baseline power-management policies.

The alternatives the paper positions fvsst against:

* :class:`NoManagementGovernor` — everything at ``f_max`` always; the
  energy-normalisation baseline of Table 3 ("a system which does not
  respond to changes in frequency needs").
* :class:`UniformScalingGovernor` — "slowing all nodes in a system
  uniformly" (abstract): the highest single frequency whose aggregate
  power fits the budget, applied to every processor.
* :class:`PowerDownGovernor` — "powering down some nodes" (abstract):
  keep as many processors as fit the budget at ``f_max``, switch the rest
  off; their work stalls (migration is assumed impossible, Section 1).
* :class:`UtilizationGovernor` — a Demand-Based-Switching/LongRun-style
  policy (Section 3.1): step frequency up when utilisation is high, down
  when low, with no knowledge of memory behaviour.  On a hot-idling
  Power4+ it sees 100% utilisation always — the failure mode the related
  work section points at.
"""

from __future__ import annotations

from ..errors import SchedulingError
from ..power.table import FrequencyPowerTable
from ..sim.counters import CounterReader
from ..sim.driver import Simulation
from ..sim.machine import SMPMachine
from ..units import check_positive
from .governor import Governor

__all__ = [
    "uniform_cap_frequency",
    "NoManagementGovernor",
    "UniformScalingGovernor",
    "PowerDownGovernor",
    "UtilizationGovernor",
]


def uniform_cap_frequency(table: FrequencyPowerTable, num_procs: int,
                          limit_w: float | None) -> float:
    """Highest frequency every one of ``num_procs`` processors can run at
    simultaneously within ``limit_w`` (the uniform-scaling rule).

    Falls back to the table floor when even that exceeds the limit.
    """
    if num_procs < 1:
        raise SchedulingError("need at least one processor")
    if limit_w is None:
        return table.f_max_hz
    check_positive(limit_w, "limit_w")
    f = table.max_frequency_under(limit_w / num_procs)
    return table.f_min_hz if f is None else f


class NoManagementGovernor(Governor):
    """All processors at f_max, always; ignores power limits entirely."""

    name = "none"

    def attach(self, sim: Simulation) -> None:
        super().attach(sim)
        for core in self.machine.cores:
            core.set_frequency(self.machine.table.f_max_hz, sim.now_s)

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        pass  # deliberately unresponsive


class UniformScalingGovernor(Governor):
    """One shared frequency chosen purely from the budget."""

    name = "uniform"

    def __init__(self, machine: SMPMachine, *,
                 power_limit_w: float | None = None) -> None:
        super().__init__(machine)
        self.power_limit_w = power_limit_w

    def attach(self, sim: Simulation) -> None:
        super().attach(sim)
        self._apply(sim.now_s)

    def _apply(self, now_s: float) -> None:
        f = uniform_cap_frequency(self.machine.table,
                                  self.machine.num_cores, self.power_limit_w)
        for core in self.machine.cores:
            core.set_frequency(f, now_s)

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        self.power_limit_w = limit_w
        self._apply(now_s)


class PowerDownGovernor(Governor):
    """Keep k processors at f_max, power the rest off.

    Processors are taken offline from the highest index down, matching the
    convention that low-numbered processors host system work.
    """

    name = "powerdown"

    def __init__(self, machine: SMPMachine, *,
                 power_limit_w: float | None = None) -> None:
        super().__init__(machine)
        self.power_limit_w = power_limit_w

    def attach(self, sim: Simulation) -> None:
        super().attach(sim)
        self._apply(sim.now_s)

    def _apply(self, now_s: float) -> None:
        table = self.machine.table
        n = self.machine.num_cores
        if self.power_limit_w is None:
            online = n
        else:
            online = min(n, int(self.power_limit_w // table.max_power_w))
        for i, core in enumerate(self.machine.cores):
            core.offline = i >= online
            if not core.offline:
                core.set_frequency(table.f_max_hz, now_s)

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        self.power_limit_w = limit_w
        self._apply(now_s)

    @property
    def online_count(self) -> int:
        return sum(1 for c in self.machine.cores if not c.offline)


class UtilizationGovernor(Governor):
    """DBS/LongRun-style utilisation stepping (no memory awareness).

    Utilisation is the non-halted fraction of the last period.  A hot-idle
    core never halts, so its utilisation reads 1.0 and it gets driven to
    the cap — the pathology Sections 3.1/5 describe.
    """

    name = "utilization"

    def __init__(self, machine: SMPMachine, *,
                 power_limit_w: float | None = None,
                 period_s: float = 0.100,
                 up_threshold: float = 0.90,
                 down_threshold: float = 0.50) -> None:
        super().__init__(machine)
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise SchedulingError("thresholds must satisfy 0 < down < up <= 1")
        self.power_limit_w = power_limit_w
        self.period_s = period_s
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.readers = [CounterReader(core.counters)
                        for core in machine.cores]

    def attach(self, sim: Simulation) -> None:
        super().attach(sim)
        self._cap_all(sim.now_s)
        sim.every(self.period_s, self._on_tick, name="utilization-governor")

    def _cap_hz(self) -> float:
        return uniform_cap_frequency(self.machine.table,
                                     self.machine.num_cores,
                                     self.power_limit_w)

    def _cap_all(self, now_s: float) -> None:
        cap = self._cap_hz()
        for core in self.machine.cores:
            core.set_frequency(min(core.frequency_setting_hz, cap), now_s)

    def _on_tick(self, now_s: float) -> None:
        table = self.machine.table
        cap = self._cap_hz()
        for core, reader in zip(self.machine.cores, self.readers):
            sample = reader.sample(now_s)
            utilization = 1.0 - sample.halted_fraction
            current = core.frequency_setting_hz
            if utilization > self.up_threshold:
                target = table.next_higher(current) or current
            elif utilization < self.down_threshold:
                target = table.next_lower(current) or current
            else:
                target = current
            core.set_frequency(min(target, cap), now_s)

    def set_power_limit(self, limit_w: float | None, now_s: float) -> None:
        self.power_limit_w = limit_w
        self._cap_all(now_s)
