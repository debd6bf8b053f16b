"""The simulated hardware substrate.

The paper's prototype ran on a real 4-way Power4+ p630; this package is the
analytic, event-driven stand-in (see DESIGN.md §2 for the substitution
argument).  It exposes exactly the interfaces the fvsst daemon consumed on
real hardware — per-core performance counters, a frequency/throttle
actuator, a system power meter, power supplies — while executing
phase-structured workloads whose ground truth includes the effects the
paper names as predictor error sources (unmodeled stalls, latency jitter,
phase transitions inside sampling intervals, the hot idle loop).

Modules:

* :mod:`~repro.sim.rng` — seeded randomness helpers.
* :mod:`~repro.sim.events` / :mod:`~repro.sim.clock` — event queue and time.
* :mod:`~repro.sim.counters` — counter banks, snapshots, noisy readers.
* :mod:`~repro.sim.throttle` — the fetch-throttle actuator.
* :mod:`~repro.sim.idle` — hot idle loop and idle detection.
* :mod:`~repro.sim.os_sched` — the per-core round-robin dispatcher.
* :mod:`~repro.sim.core` — a simulated Power4+ core.
* :mod:`~repro.sim.powermeter` — system power measurement.
* :mod:`~repro.sim.machine` — the SMP machine (cores + PSUs + meter).
* :mod:`~repro.sim.fleet` — columnar advance of every machine over
  event-free spans (the fast path; ``machine.advance`` is the scalar
  reference).
* :mod:`~repro.sim.driver` — the simulation loop tying it together.
* :mod:`~repro.sim.network` / :mod:`~repro.sim.node` /
  :mod:`~repro.sim.cluster` — multi-node clusters over a latency network.
"""

from .rng import make_rng, spawn_rngs
from .events import Event, EventQueue
from .clock import SimClock
from .counters import CounterBank, CounterSnapshot, CounterSample, CounterReader
from .throttle import ThrottleActuator
from .idle import IdleStyle, IdleDetector
from .os_sched import Dispatcher
from .core import SimulatedCore, CoreConfig
from .powermeter import PowerMeter
from .machine import SMPMachine, MachineConfig
from .fleet import advance_machines
from .driver import Simulation
from .network import Network, NetworkConfig
from .node import ClusterNode
from .cluster import Cluster

__all__ = [
    "make_rng",
    "spawn_rngs",
    "Event",
    "EventQueue",
    "SimClock",
    "CounterBank",
    "CounterSnapshot",
    "CounterSample",
    "CounterReader",
    "ThrottleActuator",
    "IdleStyle",
    "IdleDetector",
    "Dispatcher",
    "SimulatedCore",
    "CoreConfig",
    "PowerMeter",
    "SMPMachine",
    "MachineConfig",
    "advance_machines",
    "Simulation",
    "Network",
    "NetworkConfig",
    "ClusterNode",
    "Cluster",
]
