"""Shared fixtures."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.model.ipc import WorkloadSignature
from repro.model.latency import POWER4_LATENCIES
from repro.power.table import POWER4_TABLE, WORKED_EXAMPLE_TABLE
from repro.sim.machine import MachineConfig, SMPMachine
from repro.sim.core import CoreConfig
from repro.sim.driver import Simulation
from repro.units import ghz


@pytest.fixture
def latencies():
    """The p630 latency profile."""
    return POWER4_LATENCIES


@pytest.fixture
def table():
    """The full 16-point Table 1."""
    return POWER4_TABLE


@pytest.fixture
def example_table():
    """The 5-point worked-example ladder."""
    return WORKED_EXAMPLE_TABLE


@pytest.fixture
def cpu_signature():
    """A nearly pure CPU workload (core-to-memory ratio ~ 65)."""
    return WorkloadSignature(core_cpi=0.65, mem_time_per_instr_s=1e-11)


@pytest.fixture
def mem_signature():
    """A memory-bound workload saturating near 650 MHz (ratio 0.075)."""
    return WorkloadSignature(core_cpi=0.65,
                             mem_time_per_instr_s=0.65 / 0.075 / ghz(1.0))


def make_machine(num_cores: int = 1, *, seed: int = 0,
                 jitter: float = 0.0, **core_kwargs) -> SMPMachine:
    """Deterministic machine helper (zero jitter unless asked)."""
    config = MachineConfig(
        num_cores=num_cores,
        core_config=CoreConfig(latency_jitter_sigma=jitter, **core_kwargs),
    )
    return SMPMachine(config, seed=seed)


def node_power_w(schedule, node_id: int) -> float:
    """Scheduled power of one node."""
    return sum(a.power_w for a in schedule.assignments
               if a.node_id == node_id)


@pytest.fixture
def quiet_machine():
    """A single-core machine with no stochastic effects."""
    return make_machine(1)


@pytest.fixture
def quiet_machine4():
    """A four-core machine with no stochastic effects."""
    return make_machine(4)


@pytest.fixture
def sim_factory():
    """Build a Simulation over one or more machines."""
    return lambda machines: Simulation(machines)


@contextmanager
def scalar_reference():
    """Run every ``Simulation`` span through the scalar ``machine.advance``
    reference instead of the fleet columns.

    Patches the driver's one call site, :func:`repro.sim.fleet.advance_machines`
    as bound in :mod:`repro.sim.driver`, with the per-machine loop, which
    reports no machine-span through the columns and none delegated.  A
    fleet built while the seam is in place fails the test: every span must
    have taken the reference.
    """
    def advance(machines, dt, *, flush=True):
        for machine in machines:
            machine.advance(dt)
        return 0, None

    def no_fleet(machines):
        raise AssertionError("a FleetState was built under scalar_reference()")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.sim.driver.advance_machines", advance)
        mp.setattr("repro.sim.fleet.FleetState", no_fleet)
        yield
