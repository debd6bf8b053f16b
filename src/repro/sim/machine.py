"""The SMP machine: cores + power meter + energy ledger + supplies.

Models the experimental p630 (Section 7.1): four cores sharing a frequency/
power table, a system power meter, fixed non-CPU power, and an optional
redundant supply bank for the Section 2 failure scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import constants
from ..errors import SimulationError
from ..model.latency import MemoryLatencyProfile, POWER4_LATENCIES
from ..power.energy import EnergyLedger
from ..power.supply import SupplyBank
from ..power.table import POWER4_TABLE, FrequencyPowerTable
from ..units import check_non_negative
from ..workloads.job import Job
from .core import CoreConfig, SimulatedCore
from .powermeter import PowerMeter
from .rng import spawn_rngs

__all__ = ["MachineConfig", "SMPMachine", "observation_bounds"]


#: Maximum stretch between supply-bank demand observations.  Long
#: event-free advances of a machine with a supply bank are chunked at this
#: granularity so overload episodes and cascade deadlines are detected
#: even when nothing else is scheduled.
SUPPLY_OBSERVATION_INTERVAL_S = 0.010


def observation_bounds(start: float, end: float, dt: float) -> list[float]:
    """Ascending supply-observation boundaries for one span of ``dt``
    seconds from ``start`` to ``end``, every
    :data:`SUPPLY_OBSERVATION_INTERVAL_S`, always ending exactly at ``end``.

    Boundaries are computed by index (``start + i*step``) so the span end
    lands exactly instead of accumulating ``dt -= step`` subtraction
    error; ``start + i*step`` vectorised elementwise matches the scalar
    expression bit-for-bit.  The fleet columns replay banked machines
    through the same boundaries, so this is the single source of truth.
    """
    step = SUPPLY_OBSERVATION_INTERVAL_S
    n = int(dt / step)
    while n and start + n * step >= end:
        n -= 1
    bounds = (start + np.arange(1.0, n + 1.0) * step).tolist()
    bounds.append(end)
    return bounds


@dataclass(frozen=True)
class MachineConfig:
    """Configuration of a simulated SMP machine."""

    num_cores: int = constants.NUM_CORES_P630
    table: FrequencyPowerTable = field(default_factory=lambda: POWER4_TABLE)
    latencies: MemoryLatencyProfile = field(default_factory=lambda: POWER4_LATENCIES)
    core_config: CoreConfig = field(default_factory=CoreConfig)
    non_cpu_power_w: float = constants.NON_CPU_POWER_W
    #: Measurement noise of the power meter (true draw stays exact).
    meter_noise_sigma: float = 0.0
    #: Initial operating point (defaults to the table's maximum).
    initial_freq_hz: float | None = None
    name: str = "p630"

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise SimulationError("a machine needs at least one core")
        check_non_negative(self.non_cpu_power_w, "non_cpu_power_w")
        if self.initial_freq_hz is not None and self.initial_freq_hz not in self.table:
            raise SimulationError(
                "initial frequency must be an operating point of the table"
            )


class SMPMachine:
    """Cores, meter, energy ledger and (optionally) a supply bank."""

    def __init__(self, config: MachineConfig | None = None, *,
                 supply_bank: SupplyBank | None = None,
                 seed: int | None = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        f0 = cfg.initial_freq_hz if cfg.initial_freq_hz is not None else cfg.table.f_max_hz
        rngs = spawn_rngs(seed, cfg.num_cores + 1)
        self.cores: list[SimulatedCore] = [
            SimulatedCore(i, initial_freq_hz=f0, latencies=cfg.latencies,
                          config=cfg.core_config, rng=rngs[i])
            for i in range(cfg.num_cores)
        ]
        self.meter = PowerMeter(
            cfg.table,
            non_cpu_power_w=cfg.non_cpu_power_w,
            noise_sigma=cfg.meter_noise_sigma,
            rng=rngs[-1],
        )
        self.ledger = EnergyLedger()
        self.supply_bank = supply_bank
        self._now_s = 0.0
        self._freq_vec: tuple[int, tuple[float, ...]] | None = None

    # -- introspection -------------------------------------------------------------

    @property
    def now_s(self) -> float:
        """Machine-local time (kept in lockstep with the driver's clock)."""
        return self._now_s

    @property
    def table(self) -> FrequencyPowerTable:
        return self.config.table

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> SimulatedCore:
        """The ``index``-th core (bounds-checked)."""
        if not 0 <= index < len(self.cores):
            raise SimulationError(
                f"core index {index} out of range 0..{len(self.cores) - 1}"
            )
        return self.cores[index]

    def assign(self, core_index: int, job: Job) -> None:
        """Place a job on a core (lifetime affinity)."""
        self.core(core_index).add_job(job)

    def migrate(self, job: Job, src: int, dst: int, *,
                cost_s: float = 0.0) -> None:
        """Move a job between cores — the operation the paper's frequency
        scheduling exists to avoid (Section 1).

        ``cost_s`` models the cold-cache warm-up on the destination: the
        job makes no progress for that long after arrival (charged as
        stolen time on the destination core).  Call only from event
        callbacks, between execution slices.
        """
        check_non_negative(cost_s, "cost_s")
        if src == dst:
            raise SimulationError("migration source equals destination")
        src_core = self.core(src)
        src_core.dispatcher.remove_job(job)
        # The queue changed behind the dispatcher's back as far as the
        # fleet kernel is concerned; re-derive the source lane.
        src_core._fleet_invalidate()
        self.core(dst).add_job(job)
        if cost_s > 0.0:
            self.core(dst).steal_time(cost_s)

    # -- power views -----------------------------------------------------------------

    def cpu_power_w(self) -> float:
        """True aggregate processor draw right now."""
        return self.meter.cpu_power_w(self.cores, self._now_s)

    def system_power_w(self) -> float:
        """True whole-system draw right now."""
        return self.meter.system_power_w(self.cores, self._now_s)

    def measure_power_w(self) -> float:
        """A measured (possibly noisy) system reading."""
        return self.meter.measure_w(self.cores, self._now_s)

    def measure_cpu_power_w(self) -> float:
        """A measured (possibly noisy) aggregate processor reading."""
        return self.meter.measure_cpu_w(self.cores, self._now_s)

    def frequency_vector_hz(self) -> list[float]:
        """Requested operating point of every core.

        Cached between frequency changes: the actuators' ``transitions``
        counters only move when a request actually changes the operating
        point, so their sum versions the vector.
        """
        version = 0
        for c in self.cores:
            version += c.actuator.transitions
        cached = self._freq_vec
        if cached is not None and cached[0] == version:
            return list(cached[1])
        vec = [c.frequency_setting_hz for c in self.cores]
        self._freq_vec = (version, tuple(vec))
        return vec

    # -- time ------------------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Run all cores for ``dt`` seconds and integrate energy.

        Per-core power is taken at the start of the interval; the driver
        always cuts intervals at frequency-change events, so power is
        constant within one call (up to throttle settling, whose error the
        paper also ignores).

        With a supply bank the span is chunked at the observation interval
        so the bank sees demand often enough to time overload episodes
        against its cascade deadline.  Chunk boundaries are computed by
        index (``start + i*step``) so ``_now_s`` lands exactly on the span
        end instead of accumulating ``dt -= step`` subtraction error.

        This is the scalar reference; :mod:`repro.sim.fleet` is the fast
        path, bit-for-bit equal to it.
        """
        check_non_negative(dt, "dt")
        if dt == 0.0:
            return
        start = self._now_s
        end = start + dt
        if self.supply_bank is None:
            self._advance_to(end)
            return
        for t_end in observation_bounds(start, end, dt):
            self._advance_to(t_end)

    def _advance_to(self, t_end: float) -> None:
        """Advance one event-free chunk ending exactly at ``t_end``."""
        start = self._now_s
        dt = t_end - start
        powers = {
            f"core{c.core_id}": self.meter.core_power_w(c, start)
            for c in self.cores
        }
        powers["non_cpu"] = self.meter.non_cpu_power_w
        for core in self.cores:
            core.advance(start, dt)
        self._now_s = t_end
        self.ledger.advance_to(t_end, powers)
        if self.supply_bank is not None:
            self.supply_bank.observe(t_end, self.system_power_w())
