"""The columnar agent sampler against the per-core scalar path.

:class:`~repro.sim.counters.CounterBlock` must equal one
:class:`~repro.sim.counters.CounterReader` per row, and every agent report
must equal the one a per-core agent would have built: one reader per
processor, a list of samples per window, windows summed left to right.
That per-core agent is kept below as :class:`ReferenceAgent` and shadows
the real agents sample by sample.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import CrashWindow, FaultSchedule, fault_scenario
from repro.cluster.protocol import REPORT_FIELDS
from repro.errors import CounterError
from repro.model.ipc import MemoryCounts
from repro.sim import Cluster, CoreConfig, MachineConfig, SMPMachine, Simulation
from repro.sim.counters import CounterBank, CounterBlock, CounterReader
from repro.sim.fleet import gather_counters, reset_fleet
from repro.sim.node import ClusterNode
from repro.sim.rng import spawn_rngs, spawn_seeds
from repro.workloads.tiers import tiered_cluster_assignment
from tests.conftest import scalar_reference

_COUNTER_FIELDS = REPORT_FIELDS[:-1]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _sample_fields(sample) -> list[float]:
    return [getattr(sample, f) for f in _COUNTER_FIELDS]


# -- CounterBlock against CounterReader ----------------------------------------------


def _random_step(rng, bank: CounterBank) -> None:
    """Advance one bank by a random (sometimes empty) slice, with a
    rounding-sized dip now and then for the clamp."""
    kind = rng.integers(4)
    if kind == 0:
        return
    if kind == 3:
        bank.cycles -= 5e-7
        return
    instr = float(rng.uniform(0.0, 1e7))
    bank.add_execution(MemoryCounts(
        instructions=instr, n_l2=float(rng.uniform(0.0, 1e4)),
        n_l3=float(rng.uniform(0.0, 1e3)), n_mem=float(rng.uniform(0.0, 1e3)),
        l1_stall_cycles=float(rng.uniform(0.0, 1e5))),
        cycles=instr * float(rng.uniform(0.5, 3.0)))
    if kind == 2:
        bank.add_halted(float(rng.uniform(0.0, 1e6)))


@pytest.mark.parametrize("sigma", [0.0, 0.005])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_matches_one_reader_per_row(sigma, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    ticks = int(rng.integers(40, 301))
    banks = [CounterBank() for _ in range(k)]
    for bank in banks:
        _random_step(rng, bank)
    readers = [CounterReader(b, noise_sigma=sigma, rng=r)
               for b, r in zip(banks, spawn_rngs(seed, k))]
    block = CounterBlock(
        np.array([b.snapshot().as_tuple() for b in banks]).T,
        spawn_rngs(seed, k), noise_sigma=sigma)
    now = 0.0
    for _ in range(ticks):
        now += float(rng.choice([0.0, 0.01, 0.0137]))
        for bank in banks:
            _random_step(rng, bank)
        deltas, interval = block.sample(
            now, np.array([b.snapshot().as_tuple() for b in banks]).T)
        for r, reader in enumerate(readers):
            sample = reader.sample(now)
            assert _hex(deltas[:, r]) == _hex(_sample_fields(sample))
            assert interval.hex() == sample.interval_s.hex()


@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_block_clamp_is_python_max(sigma):
    # NaN and -0.0 deltas clamp to +0.0, exactly like max(0.0, d).
    bank = CounterBank()
    reader = CounterReader(bank, noise_sigma=sigma, rng=5)
    block = CounterBlock(np.zeros((7, 1)), [np.random.default_rng(5)],
                         noise_sigma=sigma)
    bank.instructions = -0.0
    bank.cycles = float("nan")
    deltas, _ = block.sample(0.0, np.array([bank.snapshot().as_tuple()]).T)
    expected = _sample_fields(reader.sample(0.0))
    assert _hex(deltas[:, 0]) == _hex(expected)
    assert _hex(expected[:2]) == [(0.0).hex()] * 2


def test_block_rejects_rollback_like_the_reader():
    banks = [CounterBank(instructions=10.0), CounterBank(cycles=10.0)]
    block = CounterBlock(np.array([b.snapshot().as_tuple() for b in banks]).T,
                         spawn_rngs(1, 2))
    reader = CounterReader(banks[1])
    banks[1].cycles = 9.0
    with pytest.raises(CounterError, match="cycles"):
        reader.sample(0.01)
    with pytest.raises(CounterError, match="cycles"):
        block.sample(0.01, np.array([b.snapshot().as_tuple()
                                     for b in banks]).T)


def test_block_rejects_time_going_backwards():
    block = CounterBlock(np.zeros((7, 1)), spawn_rngs(1, 1))
    block.sample(0.02, np.zeros((7, 1)))
    with pytest.raises(CounterError):
        block.sample(0.01, np.zeros((7, 1)))


# -- agent reports against the per-core reference ---------------------------------------


class ReferenceAgent:
    """The per-core agent: a CounterReader per processor, a list of
    samples per window, sums by explicit ``acc += x`` (Python 3.12's
    ``sum()`` of floats is compensated, so it is not the reference)."""

    def __init__(self, agent, seed: int, sigma: float) -> None:
        self.agent = agent
        cores = agent.node.machine.cores
        self.readers = [CounterReader(c.counters, noise_sigma=sigma, rng=r)
                        for c, r in zip(cores, spawn_rngs(seed, len(cores)))]
        self.windows = [[] for _ in cores]
        self.pending = None
        self.was_crashed = False

    def on_sample(self, now_s: float) -> None:
        if self.agent.crashed(now_s):
            if not self.was_crashed:
                self.was_crashed = True
                for window in self.windows:
                    window.clear()
                self.pending = None
            for reader in self.readers:
                reader.sample(now_s)
            return
        self.was_crashed = False
        for window, reader in zip(self.windows, self.readers):
            window.append(reader.sample(now_s))

    def make_report(self) -> np.ndarray:
        self.pending = [len(w) for w in self.windows]
        out = np.zeros((len(REPORT_FIELDS), len(self.windows)))
        for j, window in enumerate(self.windows):
            for i, field in enumerate(REPORT_FIELDS):
                acc = 0.0
                for sample in window:
                    acc += getattr(sample, field)
                out[i, j] = acc
        return out

    def confirm(self) -> None:
        if self.pending is not None:
            for window, count in zip(self.windows, self.pending):
                del window[:count]
            self.pending = None


def shadow(coord: ClusterCoordinator, seed: int) -> list:
    """Shadow every agent of ``coord`` (built with ``seed``, not yet
    attached) with a :class:`ReferenceAgent`; returns the list of compared
    report pairs, which grows as the coordinator collects."""
    sigma = coord.config.counter_noise_sigma
    refs = [ReferenceAgent(agent, s, sigma) for agent, s in
            zip(coord.agents, spawn_seeds(seed, len(coord.agents)))]
    sampler = coord._sampler
    tick = sampler._on_tick

    def shadowed_tick(now_s):
        for ref in refs:
            ref.on_sample(now_s)
        tick(now_s)

    sampler._on_tick = shadowed_tick
    pairs = []
    for agent, ref in zip(coord.agents, refs):
        def make(now_s, make=agent.make_report, ref=ref):
            report = make(now_s)
            pairs.append((report.counters, ref.make_report()))
            return report

        def confirm(confirm=agent.confirm_report, ref=ref):
            confirm()
            ref.confirm()

        agent.make_report = make
        agent.confirm_report = confirm
    return pairs


def _cluster(nodes=4, procs=2, *, seed=5, delegated=()):
    class Delegated(SMPMachine):
        """A subclassed machine: never resident in the fleet columns."""

    config = MachineConfig(num_cores=procs,
                           core_config=CoreConfig(latency_jitter_sigma=0.0))
    seeds = spawn_seeds(seed, nodes)
    cluster = Cluster([
        ClusterNode(i, (Delegated if i in delegated else SMPMachine)(
            config, seed=seeds[i]))
        for i in range(nodes)])
    cluster.assign_all(tiered_cluster_assignment(nodes, procs, web_nodes=1,
                                                 app_nodes=1))
    return cluster


#: case -> (cluster kwargs, config kwargs, fault plan factory,
#: script(sim, coord) run after attach).
CASES = {
    "plain": ({}, {}, None, None),
    "tie": ({}, {"schedule_period_s": 0.01}, None, None),
    "scheduled-crash": ({}, {}, lambda: FaultSchedule(crashes=(
        CrashWindow(node_id=1, start_s=0.23, end_s=0.41),
        CrashWindow(node_id=2, start_s=0.3, end_s=0.35))), None),
    "manual-crash": ({}, {}, None, lambda sim, coord: (
        sim.at(0.125, lambda t: coord.cluster.nodes[3].crash()),
        sim.at(0.31, lambda t: coord.cluster.nodes[3].recover()))),
    "lossy": ({}, {}, lambda: fault_scenario("lossy", seed=4), None),
    "delegated": ({"delegated": (1,)}, {}, None, None),
    "chunked-debt": ({}, {}, None, lambda sim, coord: sim.every(
        0.013, lambda t: coord.cluster.nodes[2].machine.cores[1]
        .steal_time(0.002), name="steal")),
    "reset-fleet": ({}, {}, None, lambda sim, coord: sim.at(
        0.155, lambda t: reset_fleet(sim.machines))),
}


def _run_case(case, sigma, *, fleet=True, advance_before_attach=False,
              late_confirm=False, pass_at_zero=False):
    cluster_kw, config_kw, faults, script = CASES[case]
    cluster = _cluster(**cluster_kw)
    config = CoordinatorConfig(counter_noise_sigma=sigma,
                               **{"sample_period_s": 0.01, **config_kw})
    coord = ClusterCoordinator(cluster, config,
                               faults=faults and faults(), seed=31)
    pairs = shadow(coord, 31)
    sim = Simulation(cluster.machines)
    with nullcontext() if fleet else scalar_reference():
        if advance_before_attach:
            sim.run_for(0.037)
        coord.attach(sim)
        if pass_at_zero:
            coord.run_global_pass(sim.now_s)
        if script is not None:
            script(sim, coord)
        sim.run_for(0.33)
        if late_confirm:
            agent = coord.agents[0]
            agent.make_report(sim.now_s)
            sim.run_for(0.035)
            agent.confirm_report()
            agent.make_report(sim.now_s)
        sim.run_for(0.2)
    return pairs, coord


def _assert_pairs_equal(pairs):
    assert len(pairs) >= 8
    assert any(real.any() for real, _ in pairs)
    for real, expected in pairs:
        assert real.shape == expected.shape
        assert _hex(real.ravel()) == _hex(expected.ravel())


@pytest.mark.parametrize("sigma", [0.0, 0.005])
@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_per_core_reference(case, sigma):
    pairs, coord = _run_case(case, sigma)
    _assert_pairs_equal(pairs)
    if case == "lossy":
        assert coord.reports_dropped > 0


@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_late_confirm_and_pass_at_zero(sigma):
    pairs, _ = _run_case("plain", sigma, late_confirm=True,
                         pass_at_zero=True)
    _assert_pairs_equal(pairs)


@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_fleet_switched_off(sigma):
    pairs, _ = _run_case("manual-crash", sigma, fleet=False)
    _assert_pairs_equal(pairs)


@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_built_then_advanced_then_attached(sigma):
    # The baseline is read when the agents are built, so the first window
    # holds everything since construction.
    pairs, _ = _run_case("plain", sigma, advance_before_attach=True)
    _assert_pairs_equal(pairs)


def test_debt_parks_its_machine():
    # The chunked-debt case parks the indebted machine, and the sampler
    # reads that machine's banks, not its zeroed columns.
    cluster = _cluster()
    machine = cluster.nodes[2].machine
    core = machine.cores[1]
    sim = Simulation(cluster.machines)
    sim.run_for(0.01)
    core.steal_time(0.002)
    sim.run_for(0.001)
    fleet = core._fleet
    assert fleet is not None and fleet._valid
    assert fleet._parked == {machine: "transient"}
    lane = fleet._lane_of[core]
    assert not fleet.cnt[:, lane].any()
    cores = cluster.nodes[1].machine.cores + machine.cores
    got = gather_counters(cores)[:, cores.index(core)]
    assert got.any()
    assert _hex(got) == _hex(core.counters.snapshot().as_tuple())
    # The debt drains at the front of the parked machine's next advance;
    # the span after that admits it back into the columns.
    sim.run_for(0.01)
    sim.run_for(0.001)
    assert not fleet._parked and machine in fleet.resident


# -- one event per coordinator ---------------------------------------------------------


def test_one_sampler_event_per_tick():
    cluster = Cluster.homogeneous(
        64, machine_config=MachineConfig(num_cores=4), seed=3)
    cluster.assign_all(tiered_cluster_assignment(64, 4))
    coord = ClusterCoordinator(cluster, CoordinatorConfig(), seed=4)
    sim = Simulation(cluster.machines)
    names = []
    pop_due = sim.events.pop_due

    def counted(now_s):
        event = pop_due(now_s)
        if event is not None:
            names.append(event.name)
        return event

    sim.events.pop_due = counted
    coord.attach(sim)
    # The 100th tick accumulates to just past 1.0 s.
    sim.run_for(1.005)
    samples = [n for n in names if n.startswith("agent-")]
    assert samples == ["agent-n0-sample"] * 100


def test_lone_agent_double_attach_rejected_with_group():
    from repro.errors import ClusterError

    cluster = _cluster(nodes=2)
    coord = ClusterCoordinator(cluster, seed=1)
    sim = Simulation(cluster.machines)
    coord.attach(sim)
    with pytest.raises(ClusterError):
        coord.agents[1].attach(sim)
