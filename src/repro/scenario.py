"""Declarative scenario construction and execution: the one front door for
a one-machine run.

A machine, workloads on cores, one governor, some timed events, a
measurement window.  :class:`Scenario` captures that shape declaratively
and runs it, returning a :class:`ScenarioResult` with the common
measurements.  Every paper experiment that runs one p630 under a named
governor (Tables 2–3, Figures 4–10) builds through it.

    result = (Scenario(num_cores=4, seed=7)
              .with_job(3, profile_by_name("mcf").job(loop=True))
              .with_governor("fvsst", power_limit_w=294.0)
              .at(2.0, lambda sc, t: sc.governor.set_power_limit(150.0, t))
              .run(6.0))
    print(result.cpu_energy_j, result.frequency_residency(3))

:meth:`Scenario.run` advances for a fixed duration;
:meth:`Scenario.run_to_completion` runs ONCE-mode jobs to completion (the
paper's Section 8 protocol: a benchmark on one CPU, the other CPUs
hot-idle).  Seeding: the machine gets ``seed`` and the governor
``seed + 1``, so core jitter and counter noise are independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .core.baselines import (
    NoManagementGovernor,
    PowerDownGovernor,
    UniformScalingGovernor,
    UtilizationGovernor,
)
from .core.daemon import DaemonConfig, FvsstDaemon
from .core.governor import Governor
from .core.logs import FvsstLog
from .errors import ConfigError, ExperimentError
from .power.supply import SupplyBank
from .sim.core import CoreConfig
from .sim.driver import Simulation
from .sim.machine import MachineConfig, SMPMachine
from .units import check_non_negative, check_positive
from .workloads.job import Job

__all__ = ["Scenario", "ScenarioResult", "GOVERNOR_NAMES", "make_governor"]

GOVERNOR_NAMES = ("fvsst", "none", "uniform", "powerdown", "utilization")

#: Shared default daemon tunables: :class:`DaemonConfig` is frozen, so
#: every budget-matching ``make_governor`` call can hand out the same
#: instance instead of rebuilding one per run.
_DEFAULT_DAEMON_CONFIG = DaemonConfig()

#: Step of :meth:`Scenario.run_to_completion`'s completion checks (events
#: still fire at their exact times inside each step).
_COMPLETION_STEP_S = 0.5


def make_governor(name: str, machine: SMPMachine, *,
                  power_limit_w: float | None,
                  daemon_config: DaemonConfig | None = None,
                  seed: int | None = None) -> Governor:
    """Instantiate a governor by name with a power budget."""
    if name == "fvsst":
        config = daemon_config if daemon_config is not None \
            else _DEFAULT_DAEMON_CONFIG
        if config.power_limit_w != power_limit_w:
            config = replace(config, power_limit_w=power_limit_w)
        return FvsstDaemon(machine, config, seed=seed)
    if name == "none":
        return NoManagementGovernor(machine)
    if name == "uniform":
        return UniformScalingGovernor(machine, power_limit_w=power_limit_w)
    if name == "powerdown":
        return PowerDownGovernor(machine, power_limit_w=power_limit_w)
    if name == "utilization":
        return UtilizationGovernor(machine, power_limit_w=power_limit_w)
    raise ExperimentError(
        f"unknown governor {name!r}; available: {GOVERNOR_NAMES}"
    )


@dataclass
class ScenarioResult:
    """Measurements from one scenario run.

    The measurement window opens when the jobs are enqueued (after any
    settle) and closes ``duration_s`` later for :meth:`Scenario.run`, or
    at the last job's completion instant for
    :meth:`Scenario.run_to_completion`.  ``elapsed_s`` and the energies
    are set when the run returns.
    """

    machine: SMPMachine
    governor: Governor
    sim: Simulation
    jobs: list[tuple[int, Job]]
    #: Simulated time at which the jobs were enqueued.
    start_s: float
    #: Length of the measurement window, seconds.
    elapsed_s: float = 0.0
    #: Energy of each core over the measurement window, joules.
    core_energies_j: tuple[float, ...] = ()

    @property
    def cpu_energy_j(self) -> float:
        """Total processor energy over the measurement window."""
        return sum(self.core_energies_j)

    def core_energy_j(self, core: int) -> float:
        """Energy of one core over the measurement window."""
        return self.core_energies_j[core]

    @property
    def throughput(self) -> float:
        """Instructions the placed jobs retired per second of the window."""
        if self.elapsed_s <= 0:
            return 0.0
        return sum(job.instructions_retired
                   for _core, job in self.jobs) / self.elapsed_s

    @property
    def log(self) -> FvsstLog | None:
        """The fvsst log, when the governor was a daemon."""
        return self.governor.log if isinstance(self.governor,
                                               FvsstDaemon) else None

    def frequency_residency(self, core: int) -> dict[float, float]:
        """Ground-truth frequency residency of one core (wall-time based,
        works under every governor)."""
        times = self.machine.core(core).freq_time_s
        total = sum(times.values())
        if total <= 0:
            raise ConfigError(f"core {core} recorded no execution time")
        return {f: t / total for f, t in sorted(times.items())}

    def instructions_retired(self) -> float:
        """Aggregate instructions across all cores."""
        return sum(c.counters.instructions for c in self.machine.cores)


class Scenario:
    """A builder for machine + workload + governor + events."""

    def __init__(self, *, num_cores: int = 4, seed: int = 0,
                 machine_config: MachineConfig | None = None,
                 core_config: CoreConfig | None = None,
                 supply_bank: SupplyBank | None = None) -> None:
        if machine_config is not None and core_config is not None:
            raise ConfigError(
                "give machine_config or core_config, not both"
            )
        if machine_config is None:
            machine_config = MachineConfig(
                num_cores=num_cores,
                core_config=core_config or CoreConfig(),
            )
        self._machine_config = machine_config
        self._seed = seed
        self._supply_bank = supply_bank
        self._jobs: list[tuple[int, Job]] = []
        self._governor_name = "none"
        self._power_limit_w: float | None = None
        self._daemon_config: DaemonConfig | None = None
        self._events: list[tuple[float, Callable]] = []
        self._settle_s = 0.0

    # -- declarative pieces ----------------------------------------------------------

    def with_job(self, core: int, job: Job) -> "Scenario":
        """Place a job on a core."""
        if not 0 <= core < self._machine_config.num_cores:
            raise ConfigError(f"core {core} out of range")
        self._jobs.append((core, job))
        return self

    def with_governor(self, name: str, *, power_limit_w: float | None = None,
                      daemon_config: DaemonConfig | None = None) -> "Scenario":
        """Select the governor by name (one of :data:`GOVERNOR_NAMES`)."""
        self._governor_name = name
        self._power_limit_w = power_limit_w
        self._daemon_config = daemon_config
        return self

    def at(self, time_s: float,
           action: Callable[["ScenarioResult", float], None]) -> "Scenario":
        """Schedule ``action(result, t)`` at an absolute simulation time."""
        check_non_negative(time_s, "time_s")
        self._events.append((time_s, action))
        return self

    def settle(self, seconds: float) -> "Scenario":
        """Let the governor warm up before jobs are enqueued."""
        check_non_negative(seconds, "seconds")
        self._settle_s = seconds
        return self

    # -- execution ---------------------------------------------------------------------

    def run(self, duration_s: float) -> ScenarioResult:
        """Build everything and advance the simulation ``duration_s``
        past the enqueueing of the jobs."""
        check_positive(duration_s, "duration_s")
        result, start_energies = self._start()
        result.sim.run_for(duration_s)
        return self._finish(result, start_energies, duration_s)

    def run_to_completion(self, max_duration_s: float = 600.0
                          ) -> ScenarioResult:
        """Build everything and run until every placed job completes.

        The window ends at the last completion instant.  The ledger runs
        on to the end of the last 0.5 s step, so core energies are scaled
        back linearly over that overshoot.
        """
        check_positive(max_duration_s, "max_duration_s")
        if not self._jobs:
            raise ConfigError("run_to_completion needs at least one job")
        for _core, job in self._jobs:
            if job.done:
                raise ExperimentError(f"job {job.name!r} already completed")
        result, start_energies = self._start()
        sim = result.sim
        jobs = [job for _core, job in self._jobs]
        while not all(job.done for job in jobs):
            if sim.now_s - result.start_s > max_duration_s:
                pending = [job.name for job in jobs if not job.done]
                raise ExperimentError(
                    f"jobs {pending} did not finish within {max_duration_s} s"
                    f" under {self._governor_name!r}"
                )
            sim.run_for(_COMPLETION_STEP_S)
        end_s = max(job.completed_at_s for job in jobs)
        elapsed = end_s - result.start_s
        scale = 1.0
        if sim.now_s > end_s and sim.now_s > result.start_s:
            scale = elapsed / (sim.now_s - result.start_s)
        return self._finish(result, start_energies, elapsed, scale)

    def _start(self) -> tuple[ScenarioResult, tuple[float, ...]]:
        """Build the machine and governor, settle, enqueue the jobs and
        schedule the events; also returns the core energies at the start
        of the window."""
        machine = SMPMachine(self._machine_config,
                             supply_bank=self._supply_bank, seed=self._seed)
        governor = make_governor(
            self._governor_name, machine,
            power_limit_w=self._power_limit_w,
            daemon_config=self._daemon_config,
            seed=self._seed + 1,
        )
        sim = Simulation(machine)
        governor.attach(sim)
        if self._settle_s:
            sim.run_for(self._settle_s)
        result = ScenarioResult(machine=machine, governor=governor, sim=sim,
                                jobs=self._jobs, start_s=sim.now_s)
        start_energies = _core_energies(machine)
        for core, job in self._jobs:
            machine.assign(core, job)
        for time_s, action in sorted(self._events, key=lambda e: e[0]):
            if time_s < sim.now_s:
                raise ConfigError(
                    f"event at {time_s}s is before the settle window"
                )
            sim.at(time_s, lambda t, a=action: a(result, t))
        return result, start_energies

    @staticmethod
    def _finish(result: ScenarioResult, start_energies: tuple[float, ...],
                elapsed_s: float, energy_scale: float = 1.0
                ) -> ScenarioResult:
        result.elapsed_s = elapsed_s
        result.core_energies_j = tuple(
            (end - start) * energy_scale
            for start, end in zip(start_energies,
                                  _core_energies(result.machine))
        )
        return result


def _core_energies(machine: SMPMachine) -> tuple[float, ...]:
    """Each core's ledger energy so far, joules."""
    return tuple(machine.ledger.energy_of(f"core{i}")
                 for i in range(machine.num_cores))
