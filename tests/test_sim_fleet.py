"""The fleet-wide columnar kernel reproduces the scalar path bit-for-bit.

:func:`repro.sim.fleet.advance_machines` advances every eligible core in
the cluster through shared numpy columns; this file replays identical
scenarios through two paths — the fleet columns and the scalar
``machine.advance`` reference (``SimulatedCore._advance_slice`` per slice;
whole runs reach it through the ``scalar_reference()`` seam at the
driver's call site) — and asserts *exact* float equality of every piece
of machine state.  No tolerances anywhere: one
reordered IEEE operation fails the suite.

Coverage: randomized heterogeneous fleets (busy / hot-idle / multi-job
lanes, with and without latency jitter, beside machines an offline or a
halting core parks), single banked machines of both lane kinds, banked
spans of one observation chunk riding the whole-fleet pass and longer
ones chunk-walked (spans around the interval), cascades firing mid-span,
raising cascades (on resident, parked and delegated machines, and on a
span's last boundary) and shared banks forcing counted fallbacks,
jitter-lane draw-order equivalence including mid-span buffer refills and
sigma changes between spans, telemetry-on runs staying resident with
identical event streams (a banked walk's included), subclassed-hook
machines forcing the counted fallback, invalidation through every
mutator between spans, lazy-flush snapshots mid-run, the ``lossy`` /
``crash`` / ``chaos`` fault scenarios run end-to-end through the cluster
coordinator, and whole experiments
exported byte-identically through the columns and the scalar reference.
Each span's residency tally comes back from ``advance_machines``, and
each ``Simulation`` keeps its own run's.

Run queues: cores queueing several jobs stay resident busy lanes, with
the dispatcher's quantum in a column.  Randomized fleets rotate LOOP
queues, chain ONCE requests and drain a ONCE head into a LOOP job; exact
quantum ties, head and non-head migrations (through the driver too) and
arrivals between spans replay bit-equal, and a serving fleet re-derives a
lane per arrival or completion, not per span.

Serving residency: open-loop request fleets (every request a ONCE job)
replay against the scalar path too — arrivals and completions mid-span,
queue drain to hot idle, ``detach()``/re-attach, censored in-flight
accounting, and per-request ``elapsed_s`` stamps — and a stock serving
fleet must take *zero* fallbacks (completion is a columnar crossing, not a
delegation).

Parking: supply-banked machines serving requests park while they hold ONCE
work and are admitted back when it drains, within the one fleet a run
builds, while a coordinator samples the parked machines' counters.  Each
other state the columns cannot run (an offline core, a halting idle
core, daemon-time debt, a pending settle, a replaced counter bank, a
non-plain head phase, a banked two-job queue) parks its machine alone
until it clears; a power-down governor's run and a halt-idle machine
whose requests drain and resume park exactly for the spans that hold
such a core.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.export import result_to_dict
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import fault_scenario
from repro.core.baselines import PowerDownGovernor
from repro.experiments import run_experiment
from repro.power.supply import SupplyBank
from repro.power.table import POWER4_TABLE
from repro.sim import Cluster, CoreConfig, MachineConfig, SMPMachine, Simulation
from repro.sim.driver import Simulation as Driver
from repro.sim.fleet import (_BUSY, FleetState, advance_machines,
                             flush_machines, reset_fleet)
from repro.sim.counters import CounterBank
from repro.sim.idle import IdleStyle
from repro.sim.node import ClusterNode
from repro.sim.os_sched import DEFAULT_QUANTUM_S
from repro.sim.rng import spawn_seeds
from repro.errors import CascadeFailureError
from repro.telemetry import (EVENT_PHASE_TRANSITION, EVENT_PSU_FAILURE,
                             Telemetry, use_telemetry)
from repro.workloads.job import Job, LoopMode
from repro.workloads.phase import Phase
from repro.workloads.server import RequestSpec
from repro.workloads.serving import FleetTrafficSource
from repro.workloads.synthetic import synthetic_phase
from tests.conftest import scalar_reference


# -- state capture ----------------------------------------------------------------


def job_state(job):
    return (job.name, job.phase_index, job.phase_progress,
            job.instructions_retired, job.iterations, job.state,
            job.started_at_s, job.completed_at_s)


def core_state(core):
    # vars() on a resident bank carries the private flush hook; compare
    # only the counter fields themselves.
    disp = core.dispatcher
    return (core.counters.snapshot().as_tuple(), dict(core.phase_time_s),
            dict(core.freq_time_s), core._overhead_debt_s,
            core.overhead_executed_s,
            [job_state(j) for j in disp._queue], disp._quantum_left_s,
            [job_state(j) for j in disp.finished])


def machine_state(m):
    bank = None
    if m.supply_bank is not None:
        bank = (m.supply_bank.overload_since_s, m.supply_bank.cascade_count,
                [s.failed for s in m.supply_bank.supplies])
    return {
        "now": m._now_s,
        "bank": bank,
        "ledger": {name: (a.energy_j, a.last_time_s)
                   for name, a in sorted(m.ledger.accounts.items())},
        "cores": [core_state(c) for c in m.cores],
    }


def fleet_state(machines):
    return [machine_state(m) for m in machines]


# -- scenario helpers --------------------------------------------------------------


def looping_job(name, ratios, *, duration_s=0.05):
    phases = tuple(
        synthetic_phase(r, duration_s=duration_s, name=f"{name}_p{k}")
        for k, r in enumerate(ratios)
    )
    return Job(name=name, phases=phases, loop=LoopMode.LOOP)


def add_tally(tally, span):
    """Add one span's ``advance_machines`` result into ``tally``, a
    ``[advances, {reason: fallbacks}]`` pair, and return the span's."""
    advances, fallbacks = span
    tally[0] += advances
    for reason, k in (fallbacks or {}).items():
        tally[1][reason] = tally[1].get(reason, 0) + k
    return span


def run_two_ways(build, script):
    """Replay ``script(machines, advance)`` through the fleet columns and
    the scalar ``machine.advance`` reference; exact state equality.
    ``build()`` must be deterministic.  Returns the fleet replay's
    machines and its summed residency tally ``(advances, {reason:
    fallbacks})``."""
    cols = build()
    tally = [0, {}]
    script(cols, lambda dt: add_tally(tally, advance_machines(cols, dt)))
    flush_machines(cols)

    scal = build()

    def scalar(dt):
        for m in scal:
            m.advance(dt)
    script(scal, scalar)

    assert fleet_state(cols) == fleet_state(scal)
    return cols, tuple(tally)


def hetero_fleet(seed, n=5):
    """Machines mixing both lane kinds (busy, multi-job and hot-idle
    lanes, with and without jitter) plus a banked, jittered machine."""
    ms = []
    for i in range(n):
        sigma = 0.02 if i % 2 else 0.0
        m = SMPMachine(
            MachineConfig(num_cores=3,
                          core_config=CoreConfig(latency_jitter_sigma=sigma)),
            seed=seed + i)
        m.assign(0, looping_job(f"solo{i}", (1.0, 0.4, 0.15)))
        if i % 3 == 0:
            # Two LOOP jobs: a busy lane the dispatcher's quantum rotates.
            m.assign(1, looping_job(f"pair{i}a", (0.8,)))
            m.assign(1, looping_job(f"pair{i}b", (0.95, 0.3)))
        ms.append(m)
    # One banked machine, jittered and resident: a span shorter than its
    # supply-observation interval rides the whole-fleet pass, a longer
    # one is chunk-walked through the columns.
    banked = SMPMachine(
        MachineConfig(num_cores=2,
                      core_config=CoreConfig(latency_jitter_sigma=0.015)),
        supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
        seed=seed + 97)
    banked.assign(0, looping_job("banked", (0.7, 0.2)))
    ms.append(banked)
    return ms


def dark_machines(seed):
    """An offline core and a halting idle core, each on a machine of its
    own: the columns run neither, so each parks its machine (``offline``,
    ``halted``), which advances through ``machine.advance`` meanwhile."""
    ms = []
    for i, style in enumerate((IdleStyle.HOT_LOOP, IdleStyle.HALT)):
        m = SMPMachine(
            MachineConfig(num_cores=3,
                          core_config=CoreConfig(latency_jitter_sigma=0.0,
                                                 idle_style=style)),
            seed=seed + 50 + i)
        m.assign(0, looping_job(f"dark{i}", (1.0, 0.4, 0.15)))
        m.assign(1, looping_job(f"dark{i}b", (0.8,)))
        ms.append(m)
    ms[0].cores[2].offline = True
    return ms


# -- bit-for-bit equivalence -------------------------------------------------------


def test_hetero_fleet_matches_both_references():
    def script(ms, advance):
        advance(0.13)
        advance(0.0007)
        now = ms[0].now_s
        ms[0].core(0).set_frequency(POWER4_TABLE.freqs_hz[4], now)
        ms[2].core(1).set_frequency(POWER4_TABLE.freqs_hz[9], now)
        advance(0.2003)

    run_two_ways(lambda: hetero_fleet(31) + dark_machines(31), script)


def test_randomized_fleets_match(subtests=None):
    for seed in (1, 17, 23, 101):
        rng = np.random.default_rng(seed)
        spans = [float(d) for d in rng.uniform(1e-4, 0.09, size=24)]
        freq_picks = [(int(rng.integers(0, 6)), int(rng.integers(0, 3)),
                       int(rng.integers(0, len(POWER4_TABLE.freqs_hz))))
                      for _ in range(6)]

        def build(seed=seed):
            return (hetero_fleet(seed * 1000 + 5, n=4 + seed % 3)
                    + dark_machines(seed))

        def script(ms, advance, spans=spans, picks=freq_picks):
            it = iter(picks)
            for k, dt in enumerate(spans):
                advance(dt)
                if k % 4 == 3:
                    mi, ci, fi = next(it)
                    m = ms[mi % (len(ms) - 1)]
                    m.core(ci % m.num_cores).set_frequency(
                        POWER4_TABLE.freqs_hz[fi], m.now_s)

        run_two_ways(build, script)


def test_cascade_mid_span_matches():
    """A banked machine whose supplies cascade mid-span stays *resident*:
    the chunked column walk replays the bank's observations and the
    failure and its timing are identical through the fleet path."""
    def build():
        banked = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=5)
        for c in range(4):
            banked.assign(c, looping_job(f"hot{c}", (1.0,)))
        plain = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=6)
        plain.assign(0, looping_job("bg", (0.5, 0.5)))
        return [banked, plain]

    def script(ms, advance):
        advance(0.3)
        ms[0].supply_bank.fail_supply(0, now_s=ms[0].now_s)
        advance(1.2)     # overload episode runs past the cascade deadline

    ms, tally = run_two_ways(build, script)
    assert ms[0].supply_bank.cascade_count > 0
    # Both machines went through columns on both spans: no fallbacks.
    assert tally == (4, {})


def test_jitter_lanes_match_both_references():
    """Busy lanes with latency jitter advance in columns.  The block-drawn
    lognormal draws must land in the same order as the scalar path: the
    refill-64 at span start on a sigma mismatch, one draw per slice, and
    the mid-span refill-256 when a long span exhausts the buffer."""
    def build():
        ms = []
        for i in range(3):
            m = SMPMachine(
                MachineConfig(num_cores=2,
                              core_config=CoreConfig(
                                  latency_jitter_sigma=0.01 * (i + 1))),
                seed=300 + i)
            m.assign(0, looping_job(f"j{i}", (1.0, 0.5, 0.2),
                                    duration_s=0.01))
            if i == 0:
                m.assign(1, looping_job("j0b", (0.85,), duration_s=0.008))
            ms.append(m)
        return ms

    def script(ms, advance):
        advance(0.035)
        advance(1.7)      # >64 phase crossings in one span: refill-256
        now = ms[0].now_s
        ms[1].core(0).set_frequency(POWER4_TABLE.freqs_hz[6], now)
        advance(0.9)
        advance(0.0004)   # short span: at most one draw per busy lane
        advance(0.42)

    _, tally = run_two_ways(build, script)
    assert tally == (15, {})


def test_randomized_jitter_fleets_match():
    """Randomized spans over jittered fleets, long enough to force
    mid-span refills at random buffer offsets."""
    for seed in (3, 29):
        rng = np.random.default_rng(seed)
        spans = [float(d) for d in rng.uniform(5e-4, 0.6, size=14)]

        def build(seed=seed):
            return (hetero_fleet(seed * 500 + 11, n=3 + seed % 2)
                    + dark_machines(seed))

        def script(ms, advance, spans=spans):
            for k, dt in enumerate(spans):
                advance(dt)
                if k % 5 == 4:
                    m = ms[k % len(ms)]
                    m.core(0).set_frequency(
                        POWER4_TABLE.freqs_hz[(k * 3) % len(
                            POWER4_TABLE.freqs_hz)], m.now_s)

        run_two_ways(build, script)


def test_jitter_sigma_changes_between_spans():
    """Replacing ``core.config`` between spans (0 -> s, s -> s', s' -> 0)
    invalidates the lane; the scalar refill discipline (sigma mismatch at
    the next span start) replays identically through the columns."""
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=71)
        m.assign(0, looping_job("sig", (0.95, 0.3), duration_s=0.012))
        m.assign(1, looping_job("sig2", (0.6,), duration_s=0.02))
        peer = SMPMachine(
            MachineConfig(num_cores=1,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=72)
        peer.assign(0, looping_job("peer", (0.8, 0.4), duration_s=0.015))
        return [m, peer]

    def script(ms, advance):
        advance(0.08)
        for c in ms[0].cores:
            c.config = CoreConfig(latency_jitter_sigma=0.03)
        advance(0.3)      # 0 -> sigma: refill-64 fires on the new sigma
        for c in ms[0].cores:
            c.config = CoreConfig(latency_jitter_sigma=0.011)
        advance(0.3)      # sigma -> sigma': z draws reused, js recomputed
        for c in ms[0].cores:
            c.config = CoreConfig(latency_jitter_sigma=0.0)
        advance(0.2)      # sigma -> 0: jitterless again
        advance(0.1)

    run_two_ways(build, script)


def test_mutators_between_spans_match():
    """Every invalidation hook: set_frequency, add_job, steal_time,
    offline toggles (a parked machine's core back on, a resident one's
    off and back), power_scale, migrate."""
    def build():
        return hetero_fleet(77, n=4) + dark_machines(77)

    def script(ms, advance):
        advance(0.05)
        m = ms[0]
        m.core(1).add_job(looping_job("late", (0.9, 0.1)))
        advance(0.04)
        m.core(1).steal_time(0.003)
        advance(0.021)
        ms[-2].core(2).offline = False
        ms[1].core(2).offline = False
        m.core(2).offline = True
        advance(0.03)
        m.core(2).offline = False
        ms[-2].core(2).offline = True
        advance(0.013)
        ms[1].core(0).power_scale = 0.5
        advance(0.017)
        job = ms[2].core(0).dispatcher._queue[0]
        ms[2].migrate(job, 0, 1, cost_s=0.002)
        advance(0.044)

    run_two_ways(build, script)


def test_once_job_machine_stays_resident_through_completion():
    """A ONCE job no longer blocks residency: completion is a columnar
    crossing (queue pop + idle fall-through mid-span), so the machine
    never delegates — before, during, or after the drain."""
    jobs = []

    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=9)
        once = Job(name="once",
                   phases=[synthetic_phase(0.8, duration_s=0.02)])
        jobs.append(once)
        m.assign(0, once)
        peer = SMPMachine(
            MachineConfig(num_cores=1,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=10)
        peer.assign(0, looping_job("peer", (0.6,)))
        return [m, peer]

    def script(ms, advance):
        for _ in range(8):
            advance(0.01)   # the ONCE job completes around t=0.02
        assert jobs[-1].done
        assert jobs[-1].completed_at_s is not None

    ms, tally = run_two_ways(build, script)
    # Only the fleet replay is counted: 8 spans x 2 machines,
    # every one resident, none delegated.
    assert tally == (16, {})
    advance_machines(ms, 0.01)
    fl = ms[0].__dict__["_fleet_cache"][1]
    assert ms[0] in fl.resident


# -- run queues: quantum expiry and completion chaining are crossings -------------


def once_request(name, ratio, duration_s, *, phases=1):
    """A ONCE job of ``phases`` equal synthetic phases."""
    return Job(name=name, phases=tuple(
        synthetic_phase(ratio, duration_s=duration_s / phases,
                        name=f"{name}_p{k}")
        for k in range(phases)))


def queue_fleet(seed, sigma):
    """Unbanked machines whose cores queue several jobs — three LOOP jobs
    (the dispatcher rotates them), a burst of ONCE requests (each
    completion chains to the next) and a ONCE request ahead of a LOOP job
    — plus a banked peer whose two-job core parks its machine."""
    rng = np.random.default_rng(seed)
    ms = []
    for i in range(3):
        m = SMPMachine(
            MachineConfig(num_cores=3,
                          core_config=CoreConfig(latency_jitter_sigma=sigma)),
            seed=seed + i)
        for k in range(3):
            m.assign(0, looping_job(
                f"rr{i}{k}", tuple(rng.uniform(0.1, 1.0, size=1 + k % 2)),
                duration_s=float(rng.uniform(0.003, 0.02))))
        for k in range(int(rng.integers(4, 7))):
            m.assign(1, once_request(
                f"req{i}{k}", float(rng.uniform(0.2, 1.0)),
                float(rng.uniform(0.002, 0.015)), phases=1 + k % 2))
        m.assign(2, once_request(f"head{i}", 0.7,
                                 float(rng.uniform(0.005, 0.03))))
        m.assign(2, looping_job(f"tail{i}", (0.5, 0.9), duration_s=0.01))
        ms.append(m)
    banked = SMPMachine(
        MachineConfig(num_cores=2,
                      core_config=CoreConfig(latency_jitter_sigma=sigma)),
        supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
        seed=seed + 50)
    banked.assign(0, looping_job("bk_a", (0.8,)))
    banked.assign(0, looping_job("bk_b", (0.6, 0.3)))
    ms.append(banked)
    return ms


def assert_queues_resident(ms):
    """Every unbanked core queueing two or more jobs is a resident busy
    lane once its fleet re-derives at the next span start."""
    fleet = ms[0].__dict__["_fleet_cache"][1]
    assert fleet.prepare()
    queued = 0
    for m in ms:
        if m.supply_bank is not None:
            continue
        for core in m.cores:
            if core.dispatcher.runnable >= 2:
                assert fleet.kind[fleet._lane_of[core]] == _BUSY
                queued += 1
    assert queued


@pytest.mark.parametrize("sigma", [0.0, 0.02])
def test_randomized_run_queues_match(sigma):
    """Rotation, completion chaining and a ONCE head draining into a LOOP
    job replay bit-equal through the columns, with frequency commands
    between spans.  Only the banked peer's machine-spans delegate: its
    two-job core keeps it parked."""
    for seed in (5, 41, 77):
        rng = np.random.default_rng(seed)
        spans = [float(d) for d in rng.uniform(1e-4, 0.03, size=30)]
        picks = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                  int(rng.integers(8, len(POWER4_TABLE.freqs_hz))))
                 for _ in range(4)]

        def script(ms, advance, spans=spans, picks=picks):
            it = iter(picks)
            for k, dt in enumerate(spans):
                advance(dt)
                if k % 7 == 6:
                    mi, ci, fi = next(it)
                    ms[mi].core(ci).set_frequency(
                        POWER4_TABLE.freqs_hz[fi], ms[mi].now_s)

        ms, tally = run_two_ways(
            lambda seed=seed: queue_fleet(seed, sigma), script)
        assert tally == (len(spans) * (len(ms) - 1),
                         {"transient": len(spans)})
        for m in ms[:3]:
            rr = m.cores[0].dispatcher.jobs
            assert all(j.instructions_retired > 0 for j in rr)
            assert len(m.cores[1].dispatcher.finished) >= 2
        assert_queues_resident(ms)


def quantum_pair(quantum_s=0.010, style=IdleStyle.HOT_LOOP):
    """A fresh queue of two LOOP jobs whose 10 ms phases end exactly on
    the quantum at f_max, beside a lone LOOP job."""
    m = SMPMachine(
        MachineConfig(num_cores=2,
                      core_config=CoreConfig(latency_jitter_sigma=0.0,
                                             idle_style=style,
                                             quantum_s=quantum_s)),
        seed=21)
    m.assign(0, looping_job("qa", (0.8, 0.4), duration_s=0.010))
    m.assign(0, looping_job("qb", (1.0,), duration_s=0.010))
    m.assign(1, looping_job("solo", (0.6,)))
    return [m]


@pytest.mark.parametrize("spans", [
    (0.010,),
    (0.005, 0.005),
    (0.010 - 4e-13,),
    (0.010 + 4e-13,),
    (0.010 + 3e-12, 0.010 - 3e-12),
], ids=["one-quantum", "two-halves", "tie-below", "tie-above",
        "tie-above-then-rest"])
def test_quantum_ties_from_fresh_queue_match(spans):
    """A span that ends exactly on the quantum, or within the 1e-12
    threshold of it, rotates the queue at its end exactly like
    ``Dispatcher.account_run`` — compared right there, where the rotated
    job has just entered a phase it never ran — and later spans keep the
    phase-end ties."""
    def script(ms, advance, more=()):
        for dt in spans + more:
            advance(dt)

    run_two_ways(quantum_pair, script)
    ms, tally = run_two_ways(
        quantum_pair,
        lambda ms, advance: script(ms, advance,
                                   more=(0.0123, 0.010, 0.0077, 0.031)))
    assert tally == (len(spans) + 4, {})
    assert_queues_resident(ms)


def test_migration_of_queued_jobs_matches():
    """Migrating a queue's head resets the quantum; migrating a job
    behind it leaves the quantum running."""
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=3,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=33)
        for k in range(4):
            m.assign(0, looping_job(f"mg{k}", (0.9, 0.3), duration_s=0.007))
        m.assign(1, looping_job("dst", (0.5,)))
        return [m]

    def script(ms, advance):
        m = ms[0]
        disp = m.core(0).dispatcher
        advance(0.0037)       # no crossing: the quantum runs down in columns
        assert disp._quantum_left_s < disp.quantum_s
        m.migrate(disp.jobs[0], 0, 1)           # head: quantum resets
        assert disp._quantum_left_s == disp.quantum_s
        advance(0.0042)
        m.migrate(disp.jobs[2], 0, 2, cost_s=0.001)   # not the head
        advance(0.0161)
        m.migrate(disp.jobs[1], 0, 1)
        advance(0.027)

    ms, _ = run_two_ways(build, script)
    assert_queues_resident(ms)


def test_driver_migration_of_a_queue_head_matches():
    """Through the driver the columns stay authoritative between spans,
    so a head migrated onto an idle core must be read after its source
    lane flushed, whatever order the two stale lanes re-derive in."""
    def run(seed, n_jobs, src, dst):
        m = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=seed)
        for k in range(n_jobs):
            m.assign(src, looping_job(f"mg{k}", (0.9, 0.3), duration_s=0.007))
        sim = Simulation(m)
        sim.at(0.0037, lambda t: m.migrate(
            m.core(src).dispatcher.jobs[0], src, dst))
        sim.at(0.0091, lambda t: m.migrate(
            m.core(src).dispatcher.jobs[-1], src, dst))
        sim.run_for(0.05)
        return machine_state(m)

    for seed in (3, 5):
        for n_jobs in (2, 3):
            for src, dst in ((0, 1), (1, 0), (2, 3), (3, 2)):
                cols = run(seed, n_jobs, src, dst)
                with scalar_reference():
                    assert run(seed, n_jobs, src, dst) == cols


def test_arrivals_and_commands_between_spans_match():
    """Arrivals grow running queues, a sole job's and an idle core's too,
    and frequency commands retune them between spans."""
    def build():
        ms = queue_fleet(9, 0.02)[:1]
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=19)
        m.assign(0, looping_job("sole", (0.9, 0.2), duration_s=0.008))
        ms.append(m)
        return ms

    def script(ms, advance):
        advance(0.0043)
        for k in range(3):
            ms[0].core(1).add_job(once_request(f"late{k}", 0.6, 0.004))
        ms[1].core(0).add_job(once_request("joins", 0.9, 0.003))
        ms[1].core(1).add_job(once_request("wakes", 0.5, 0.002))
        advance(0.0091)
        ms[0].core(0).set_frequency(POWER4_TABLE.freqs_hz[9], ms[0].now_s)
        ms[1].core(0).set_frequency(POWER4_TABLE.freqs_hz[12], ms[1].now_s)
        advance(0.0173)
        ms[1].core(0).add_job(looping_job("second", (0.7,), duration_s=0.004))
        ms[1].core(1).add_job(looping_job("third", (0.4,)))
        ms[1].core(1).add_job(looping_job("fourth", (0.8,)))
        advance(0.05)

    ms, tally = run_two_ways(build, script)
    assert tally == (8, {})
    assert_queues_resident(ms)


# -- single machines: every core kind, supply banks, cascades -----------------------


def build_mixed(seed=3):
    """One banked machine with a core of each kind: busy column, two
    queued jobs (which park the machine), hot idle, offline."""
    m = SMPMachine(
        MachineConfig(num_cores=4,
                      core_config=CoreConfig(latency_jitter_sigma=0.02)),
        supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
        seed=seed,
    )
    m.assign(0, looping_job("solo", (1.0, 0.4, 0.15)))
    m.assign(1, looping_job("pair_a", (0.8,)))
    m.assign(1, looping_job("pair_b", (0.95, 0.3)))
    m.cores[3].offline = True
    return [m]


def test_mixed_cores_match_reference():
    def script(ms, advance):
        m = ms[0]
        advance(0.25)
        now = m.now_s
        m.core(0).set_frequency(POWER4_TABLE.freqs_hz[4], now)
        m.core(2).set_frequency(POWER4_TABLE.freqs_hz[9], now)
        advance(0.107)           # span end off the 10 ms grid
        m.core(1).steal_time(0.003)
        m.core(0).steal_time(0.002)   # debt parks the machine too
        advance(0.0853)
        advance(0.01)            # exactly one observation chunk
        advance(0.0004)          # sub-chunk span

    run_two_ways(build_mixed, script)


def test_halt_idle_and_zero_jitter_match_reference():
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=3,
                          core_config=CoreConfig(latency_jitter_sigma=0.0,
                                                 idle_style=IdleStyle.HALT)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=11,
        )
        m.assign(0, looping_job("busy", (0.6, 0.25)))
        m.cores[2].offline = True
        return [m]

    def script(ms, advance):
        advance(0.13)
        ms[0].core(1).set_frequency(POWER4_TABLE.freqs_hz[2], ms[0].now_s)
        advance(0.2)

    run_two_ways(build, script)


def test_no_supply_bank_matches_reference():
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.05)),
            seed=7,
        )
        m.assign(0, looping_job("j", (0.85, 0.2, 0.9)))
        return [m]

    def script(ms, advance):
        advance(0.4)
        ms[0].core(0).set_frequency(POWER4_TABLE.freqs_hz[6], ms[0].now_s)
        advance(1.1)

    run_two_ways(build, script)


def test_once_job_full_advance_matches_reference():
    """A banked machine holding a ONCE job delegates to the scalar path
    until the job completes mid-span (flipping the core idle, and its
    power draw, at an interior chunk boundary), then rejoins the columns."""
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=13,
        )
        m.assign(0, Job(name="once",
                        phases=(synthetic_phase(0.7, duration_s=0.08,
                                                name="only"),),
                        loop=LoopMode.ONCE))
        m.assign(1, looping_job("bg", (0.75,)))
        return [m]

    def script(ms, advance):
        advance(0.3)             # the ONCE job completes inside this span
        advance(0.1)

    ms, _ = run_two_ways(build, script)
    assert ms[0].cores[0].is_idle


def test_overload_cascade_counting_matches_reference():
    """Failing one PSU puts the stock machine (746 W) over a single supply
    (480 W); the deadline crossing, the cascade to dark, and the episode
    bookkeeping land on identical chunk boundaries."""
    def build():
        ms = build_mixed(seed=17)
        ms[0].supply_bank.fail_supply(0)
        return ms

    def script(ms, advance):
        advance(0.735)           # overload episode running
        advance(1.5)             # crosses the 1 s deadline: cascade, dark

    ms, _ = run_two_ways(build, script)
    assert ms[0].supply_bank.cascade_count == 1
    assert ms[0].supply_bank.all_failed


def test_raising_cascade_leaves_identical_partial_state():
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(),    # raise_on_cascade=True
            seed=23,
        )
        m.assign(0, looping_job("j", (1.0, 0.5)))
        m.supply_bank.fail_supply(0)
        return m

    fast = build()
    slow = build()
    with pytest.raises(CascadeFailureError):
        advance_machines([fast], 2.0)
    with pytest.raises(CascadeFailureError):
        slow.advance(2.0)
    # Both stop advanced exactly through the chunk at which observe raised.
    assert machine_state(fast) == machine_state(slow)
    assert fast.supply_bank.cascade_count == 1
    assert fast._now_s < 2.0


@pytest.mark.parametrize("seed", [101, 202, 303, 403])
def test_randomized_machines_match_reference(seed):
    rng = np.random.default_rng(seed)

    kinds = [int(rng.integers(0, 4)) for _ in range(4)]
    ratios = [float(rng.uniform(0.05, 1.0)) for _ in range(12)]
    durations = [float(rng.uniform(0.01, 0.12)) for _ in range(12)]
    segments = []
    for _ in range(6):
        segments.append((
            float(rng.uniform(0.004, 0.35)),          # span length
            int(rng.integers(0, 4)),                  # core to retune
            int(rng.integers(0, len(POWER4_TABLE.freqs_hz))),
            bool(rng.uniform() < 0.3),                # steal daemon time?
        ))

    def build():
        ms = []
        for twin in range(2):
            m = SMPMachine(
                MachineConfig(num_cores=4,
                              core_config=CoreConfig(
                                  latency_jitter_sigma=0.03)),
                supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
                seed=seed + twin,
            )
            k = iter(range(12))
            for c, kind in enumerate(kinds):
                if kind == 0:            # single looping job: a busy column
                    m.assign(c, looping_job(
                        f"c{c}", (ratios[next(k)], ratios[next(k)]),
                        duration_s=durations[c]))
                elif kind == 1:          # two jobs: the machine parks
                    m.assign(c, looping_job(f"c{c}a", (ratios[next(k)],),
                                            duration_s=durations[c]))
                    m.assign(c, looping_job(f"c{c}b", (ratios[next(k)],),
                                            duration_s=durations[c + 4]))
                elif kind == 3 and twin:  # offline: parks the twin only
                    m.cores[c].offline = True
                # kind 2, and kind 3 on the first machine: idle hot loop
            ms.append(m)
        return ms

    def script(ms, advance):
        m = ms[0]
        for dt, core, fidx, steal in segments:
            advance(dt)
            for other in ms:
                other.core(core).set_frequency(POWER4_TABLE.freqs_hz[fidx],
                                               other.now_s)
            if steal:
                m.core(core).steal_time(0.0015)

    _, (advances, fallbacks) = run_two_ways(build, script)
    # A two-job core parks both banked machines for the whole run (seeds
    # 101-303 each draw one), and an offline draw parks the twin (seeds
    # 101, 303 and 403).  Seed 403 draws no two-job core, so the first
    # machine's spans walk the columns, bar the one after each steal.
    assert advances > 0 or 1 in kinds
    if 3 in kinds and 1 not in kinds:
        assert fallbacks["offline"] == len(segments)


def test_simulation_events_cut_spans_identically():
    f_low = POWER4_TABLE.freqs_hz[1]

    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=29,
        )
        m.assign(0, looping_job("j", (1.0, 0.3)))
        return m

    fast = build()
    sim = Simulation(fast)
    sim.at(0.0377, lambda t: fast.core(0).set_frequency(f_low, t))
    sim.run_until(0.1)

    slow = build()
    slow.advance(0.0377)
    slow.core(0).set_frequency(f_low, 0.0377)
    slow.advance(0.1 - 0.0377)

    assert machine_state(fast) == machine_state(slow)


def test_cluster_advance_matches_reference():
    def build():
        cluster = Cluster.homogeneous(
            2,
            machine_config=MachineConfig(
                num_cores=2,
                core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=31,
        )
        for i, m in enumerate(cluster.machines):
            m.assign(0, looping_job(f"n{i}", (0.9, 0.2)))
        return cluster

    fast = build()
    slow = build()
    assert advance_machines(fast.machines, 0.5) == (2, None)
    for m in slow.machines:
        m.advance(0.5)
    assert fleet_state(fast.machines) == fleet_state(slow.machines)


# -- banked spans: one observation chunk rides the pass, longer ones walk -----------


def count_walks(monkeypatch):
    """The span start of every banked chunk walk from here on."""
    walks = []
    walk = FleetState._advance_banked

    def counted(self, plans, grids):
        walks.append(self.now)
        walk(self, plans, grids)

    monkeypatch.setattr(FleetState, "_advance_banked", counted)
    return walks


def run_spans_two_ways(build, spans, walks, between=None):
    """``run_two_ways`` over ``spans`` (``between(ms, k)`` after span
    ``k``).  Returns the column run's machines, its tally, and whether
    each of its spans walked the banked machines chunk by chunk."""
    walked = []

    def script(ms, advance):
        for k, dt in enumerate(spans):
            before = len(walks)
            advance(dt)
            walked.append(len(walks) > before)
            if between is not None:
                between(ms, k)

    ms, tally = run_two_ways(build, script)
    assert not any(walked[len(spans):])    # the scalar replay walks nothing
    return ms, tally, walked[:len(spans)]


def banked_machine(*, seed, sigma=0.02, style=IdleStyle.HOT_LOOP):
    """Four cores behind a p630 bank: a looping job on core 0, cores 1
    and 2 idle (hot, or halting, which parks the machine), a second
    looping job on core 3."""
    m = SMPMachine(
        MachineConfig(num_cores=4,
                      core_config=CoreConfig(latency_jitter_sigma=sigma,
                                             idle_style=style)),
        supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
        seed=seed)
    m.assign(0, looping_job(f"b{seed}", (1.0, 0.35), duration_s=0.004))
    m.assign(3, looping_job(f"c{seed}", (0.6,), duration_s=0.007))
    return m


def test_spans_around_the_observation_interval(monkeypatch):
    """Just below and exactly at the 10 ms interval a span is one chunk
    and rides the whole-fleet pass; just above it is two chunks and
    walks."""
    walks = count_walks(monkeypatch)
    spans = [0.0099999, 0.010, 0.0100001] * 3 + [0.0004]

    def build():
        plain = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=50)
        plain.assign(0, looping_job("plain", (0.8, 0.3), duration_s=0.006))
        return [banked_machine(seed=51), plain]

    _, tally, walked = run_spans_two_ways(build, spans, walks)
    assert walked == [False, False, True] * 3 + [False]
    assert tally == (2 * len(spans), {})


@pytest.mark.parametrize("style,sigma", [(IdleStyle.HOT_LOOP, 0.02),
                                         (IdleStyle.HALT, 0.0)],
                         ids=["hot-jittered", "halted"])
def test_every_banked_lane_kind_rides_the_pass(monkeypatch, style, sigma):
    """Busy, hot-idle and jittered banked lanes in one-chunk spans,
    between walked ones, with retunes and jobs landing on the idle cores
    between spans.  Halting idle cores are no lane kind: they park the
    machine (``halted``) until the jobs land, and it then rides the pass
    and walks like the hot one."""
    walks = count_walks(monkeypatch)
    spans = [0.004, 0.0097, 0.025, 0.006, 0.0003, 0.01, 0.031, 0.008]

    def between(ms, k):
        m = ms[0]
        if k == 1:
            m.core(1).set_frequency(POWER4_TABLE.freqs_hz[5], m.now_s)
        elif k == 3:
            m.assign(1, looping_job("late1", (0.8,), duration_s=0.005))
            m.assign(2, looping_job("late2", (0.5, 0.9), duration_s=0.006))
        elif k == 5:
            m.core(0).set_frequency(POWER4_TABLE.freqs_hz[8], m.now_s)

    def build():
        return [banked_machine(seed=55, sigma=sigma, style=style)]

    _, tally, walked = run_spans_two_ways(build, spans, walks, between)
    parked = 4 if style is IdleStyle.HALT else 0
    assert walked == [dt > 0.010 and k >= parked
                      for k, dt in enumerate(spans)]
    assert tally == (len(spans) - parked,
                     {"halted": parked} if parked else {})


def test_cascade_inside_a_one_chunk_span(monkeypatch):
    """A bank that only counts cascades overloads after one supply fails;
    5 ms spans carry the episode past its deadline, and the cascade fires
    at the end of one of them, which the whole-fleet pass advanced."""
    walks = count_walks(monkeypatch)
    spans = [0.005] * 230

    def build():
        m = banked_machine(seed=56)
        m.assign(1, looping_job("hot", (1.0,)))
        m.supply_bank.fail_supply(0)
        return [m]

    ms, tally, walked = run_spans_two_ways(build, spans, walks)
    assert ms[0].supply_bank.cascade_count == 1
    assert not any(walked)
    assert tally == (len(spans), {})


# -- serving traffic: ONCE-request lanes stay resident ------------------------------


def serving_build(*, nodes, procs, rate, sigma=0.02,
                  style=IdleStyle.HOT_LOOP, seed=11, traffic_seed=29,
                  spec=None, quantum_s=DEFAULT_QUANTUM_S):
    """A homogeneous serving fleet under constant open-loop traffic."""
    cluster = Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=sigma,
                                   idle_style=style, quantum_s=quantum_s)),
        seed=seed)
    sim = Driver(cluster.machines)
    traffic = FleetTrafficSource(
        cluster, rate_per_s=lambda t: rate, max_rate_per_s=rate,
        spec=spec, keep_records=True, seed=traffic_seed)
    return cluster.machines, sim, traffic


def serving_snapshot(machines, traffic, horizon_s):
    """Everything the scalar reference must agree on, bit for bit:
    machine state, per-request stamps (arrival / started / completed /
    ``elapsed_s``), issue and censored in-flight accounting, the censored
    fleet histogram with its maximum, and the arrival RNG stream positions
    (the next draw of each stream pins its position)."""
    traffic.harvest()
    records = [[(r.job.name, r.arrival_s, r.job.started_at_s,
                 r.job.completed_at_s, r.job.state, r.job.elapsed_s())
                for r in src.records]
               for src in traffic.sources]
    censored = traffic.fleet_digest(censored=True, horizon_s=horizon_s)
    next_draws = [src._rng.exponential(1.0) for src in traffic.sources]
    return (fleet_state(machines), records, traffic.issued,
            sum(s.completed for s in traffic.sources), traffic.in_flight,
            {**censored.value_dict(), "max": censored.max}, next_draws)


def run_serving_two_ways(build, script, horizon_s):
    """Replay ``script(sim, traffic)`` through the fleet columns and the
    scalar slice loop (``scalar_reference()``); exact snapshot equality."""
    def run():
        machines, sim, traffic = build()
        script(sim, traffic)
        flush_machines(machines)
        return serving_snapshot(machines, traffic, horizon_s)

    cols = run()
    with scalar_reference():
        scal = run()
    assert cols == scal
    return cols


def test_serving_open_loop_three_way_equality():
    """Randomized open-loop traffic on a jittered hot-idle fleet: arrivals
    and completions land mid-span, queues drain to hot idle between them,
    and the fleet and scalar paths agree exactly."""
    def build():
        return serving_build(nodes=3, procs=2, rate=240.0,
                             spec=RequestSpec(instructions=8e6))

    def script(sim, traffic):
        traffic.attach(sim)
        sim.run_for(0.4)

    snap = run_serving_two_ways(build, script, 0.4)
    _, _, issued, completed, _, _, _ = snap
    assert issued > 20
    assert completed > 0


def test_serving_overload_censoring_three_way():
    """An overloaded halt-idle fleet: queues build (resident busy lanes
    whose completions chain to the next request, and which a 2 ms quantum
    also rotates), and the censored digest's in-flight lower bounds match
    the scalar reference exactly."""
    def script(sim, traffic):
        traffic.attach(sim)
        sim.run_for(0.25)

    for quantum_s in (DEFAULT_QUANTUM_S, 0.002):
        def build(quantum_s=quantum_s):
            return serving_build(nodes=2, procs=1, rate=3000.0, sigma=0.0,
                                 style=IdleStyle.HALT, seed=4,
                                 traffic_seed=31, quantum_s=quantum_s)

        snap = run_serving_two_ways(build, script, 0.25)
        _, _, issued, completed, in_flight, _, _ = snap
        assert completed > 0
        assert in_flight > 0    # genuinely overloaded: censoring matters


def test_serving_detach_reattach_three_way():
    """Detaching mid-run drains the queues back into idle columns;
    re-attaching resumes arrivals — bit-equal throughout."""
    def build():
        return serving_build(nodes=2, procs=2, rate=300.0, seed=7,
                             traffic_seed=17)

    def script(sim, traffic):
        traffic.attach(sim)
        sim.run_for(0.15)
        traffic.detach()
        sim.run_for(0.1)    # queues drain back to hot idle
        traffic.attach(sim)
        sim.run_for(0.15)

    run_serving_two_ways(build, script, 0.4)


def test_stock_serving_fleet_takes_no_fallbacks():
    """The ISSUE's headline: ``reason="transient"`` fallbacks are zero on
    a stock serving fleet — every span of every machine stays resident
    through arrivals, completions, buildup, and drain."""
    machines, sim, traffic = serving_build(nodes=2, procs=2, rate=500.0,
                                           seed=13, traffic_seed=23)
    traffic.attach(sim)
    sim.run_for(0.5)
    assert traffic.issued > 0
    assert sum(s.completed for s in traffic.sources) > 0
    assert sim.fleet_advances > 0
    assert sim.fleet_fallbacks == {}


def test_lane_rederivations_follow_events_not_spans(monkeypatch):
    """A serving fleet re-derives a lane for its first setup, an arrival or
    a completion — not at every span a queue is running."""
    setups = []
    setup_lane = FleetState._setup_lane

    def counted(self, i, t0):
        setups.append(i)
        setup_lane(self, i, t0)

    monkeypatch.setattr(FleetState, "_setup_lane", counted)
    machines, sim, traffic = serving_build(nodes=2, procs=2, rate=1600.0,
                                           seed=13, traffic_seed=23)
    traffic.attach(sim)
    sim.run_for(0.5)
    lanes = sum(len(m.cores) for m in machines)
    completed = sum(s.completed for s in traffic.sources)
    assert sim.fleet_fallbacks == {}
    assert completed > 0 and traffic.in_flight > 0
    assert len(setups) <= lanes + traffic.issued + completed


# -- parking: banked machines holding ONCE work advance alone ------------------------


def count_builds(monkeypatch):
    """The list of every FleetState built from here on."""
    builds = []
    init = FleetState.__init__

    def counted(self, machines):
        builds.append(self)
        init(self, machines)

    monkeypatch.setattr(FleetState, "__init__", counted)
    return builds


def test_banked_serving_parks_and_admits_bit_for_bit(monkeypatch):
    """Supply-banked nodes serve ONCE requests on cores 0-1 beside LOOP
    jobs on cores 2-3.  A request parks its machine (its objects turn
    authoritative and it advances through ``machine.advance``) until the
    queue drains, and the machine is then admitted back, all within the
    one fleet built at the first span.  The coordinator samples counters
    while machines are parked, so its logged passes see what the parked
    banks hold; machine state, request stamps and the passes match the
    scalar reference exactly."""
    import repro.cluster.agent as agent_mod

    builds = count_builds(monkeypatch)
    parked_reads = []
    gather = agent_mod.gather_counters

    def watched_gather(cores):
        fleet = cores[0]._fleet
        if fleet is not None and fleet._valid:
            parked_reads.append(int(fleet._parked_mask[
                [fleet._lane_of.get(c, -1) for c in cores]].sum()))
        return gather(cores)

    def run():
        nodes = 3
        config = MachineConfig(
            num_cores=4, core_config=CoreConfig(latency_jitter_sigma=0.02))
        seeds = spawn_seeds(77, nodes)
        cluster = Cluster([
            ClusterNode(i, SMPMachine(
                config, seed=seeds[i],
                supply_bank=SupplyBank.example_p630(raise_on_cascade=False)))
            for i in range(nodes)])
        for node in cluster.nodes:
            for core in (2, 3):
                node.assign(core, looping_job(f"loop{node.node_id}{core}",
                                              (1.0, 0.5, 0.2)))
        table = cluster.nodes[0].machine.table
        sim = Driver(cluster.machines)
        rate = 60.0 * nodes * 2
        traffic = FleetTrafficSource(
            cluster, rate_per_s=lambda t: rate, max_rate_per_s=rate,
            cores_per_node=2, keep_records=True, seed=78)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(
                power_limit_w=0.6 * nodes * 4 * table.max_power_w),
            seed=79)
        coord.attach(sim)
        traffic.attach(sim)
        for _ in range(12):
            sim.run_for(0.03)   # a flush at every return, parked or not
        passes = [(e.time_s, e.node_id, e.proc_id, e.freq_hz, e.eps_freq_hz,
                   e.predicted_ipc, e.predicted_loss)
                  for e in coord.log.schedule_entries]
        return (serving_snapshot(cluster.machines, traffic, sim.now_s),
                passes, dict(sim.fleet_fallbacks))

    with monkeypatch.context() as mp:
        mp.setattr(agent_mod, "gather_counters", watched_gather)
        cols, cols_passes, fallbacks = run()
    with scalar_reference():
        scal, scal_passes, _ = run()
    assert cols_passes == scal_passes
    assert cols == scal
    assert len(builds) == 1
    assert fallbacks.get("transient", 0) > 0
    assert set(fallbacks) == {"transient"}
    assert sum(parked_reads) > 0


class TaggedJob(Job):
    """A Job subclass: the columns cannot run it, so its machine parks."""


def test_structure_changed_while_parked_is_found_at_admission(monkeypatch):
    """A supply bank attached to a parked machine without ``reset_fleet``
    is found when the machine is admitted: a new fleet holds it as a
    banked machine, and the run still matches the scalar reference."""
    builds = count_builds(monkeypatch)

    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=14)
        m.assign(0, TaggedJob(name="tagged", phases=(
            synthetic_phase(0.7, duration_s=0.03, name="t"),)))
        m.assign(1, looping_job("bg", (0.75,)))
        peer = SMPMachine(
            MachineConfig(num_cores=1,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=15)
        peer.assign(0, looping_job("peer", (0.6,)))
        return [m, peer]

    def script(ms, advance):
        advance(0.01)
        ms[0].supply_bank = SupplyBank.example_p630(raise_on_cascade=False)
        for _ in range(5):
            # The tagged job completes around t = 0.03; later spans cross
            # observation boundaries only a banked walk cuts at.
            advance(0.025)

    ms, (_, fallbacks) = run_two_ways(build, script)
    assert len(builds) == 2
    assert set(fallbacks) == {"transient"}
    fleet = ms[0].__dict__["_fleet_cache"][1]
    assert fleet is builds[-1]
    assert ms[0] in fleet.resident and fleet._banked


class TallyBank(CounterBank):
    """A CounterBank subclass: the columns cannot run it."""


class TaggedPhase(Phase):
    """A Phase subclass: a head job running it parks its machine."""


def tagged_request(name, ratio, duration_s):
    """A ONCE job whose one phase is a :class:`TaggedPhase`."""
    p = synthetic_phase(ratio, duration_s=duration_s, name=f"{name}_p0")
    return Job(name=name, phases=(TaggedPhase(**{
        f.name: getattr(p, f.name) for f in dataclasses.fields(p)}),))


def swap_bank(core, cls):
    """Replace ``core``'s counter bank with a ``cls`` holding its counts."""
    core.counters = cls(**dataclasses.asdict(core.counters))


def parking_pair(*, banked=False, settle_s=0.0):
    """A four-core machine looping on cores 0-2 (core 3 idle), jittered,
    beside a stock one-core peer."""
    m = SMPMachine(
        MachineConfig(num_cores=4,
                      core_config=CoreConfig(latency_jitter_sigma=0.02,
                                             settling_time_s=settle_s)),
        supply_bank=(SupplyBank.example_p630(raise_on_cascade=False)
                     if banked else None),
        seed=61)
    for c in range(3):
        m.assign(c, looping_job(f"t{c}", (0.9, 0.3), duration_s=0.01))
    peer = SMPMachine(
        MachineConfig(num_cores=1,
                      core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=62)
    peer.assign(0, looping_job("peer", (0.6,)))
    return [m, peer]


def _reset_and_swap(ms):
    # A bank swap has no invalidation hook: dissolve the fleet first.
    reset_fleet(ms)
    swap_bank(ms[0].cores[2], TallyBank)


def _settling(ms):
    act = ms[0].cores[0].actuator
    return act.pending and act._pending_at_s > ms[0].now_s


def _power(on):
    def toggle(ms):
        ms[0].cores[1].offline = not on
    return toggle


def _idle_style(style):
    def restyle(ms):
        core = ms[0].cores[3]    # the idle core
        core.config = dataclasses.replace(core.config, idle_style=style)
    return restyle


#: state -> (build kwargs, set the state, clear it (None: it drains
#: itself), whether it holds at a span start, the label it parks under).
PARKING_STATES = {
    "debt": (
        {}, lambda ms: ms[0].core(1).steal_time(0.025), None,
        lambda ms: ms[0].cores[1]._overhead_debt_s > 0.0, "transient"),
    "settle": (
        {"settle_s": 0.005},
        lambda ms: ms[0].core(0).set_frequency(POWER4_TABLE.freqs_hz[3],
                                               ms[0].now_s),
        None, _settling, "transient"),
    "counter-bank": (
        {}, _reset_and_swap,
        lambda ms: swap_bank(ms[0].cores[2], CounterBank),
        lambda ms: type(ms[0].cores[2].counters) is not CounterBank,
        "subclass"),
    "phase-subclass": (
        {}, lambda ms: ms[0].assign(3, tagged_request("tag", 0.8, 0.025)),
        None, lambda ms: bool(ms[0].cores[3].dispatcher._queue),
        "transient"),
    "banked-two-jobs": (
        {"banked": True},
        lambda ms: ms[0].assign(0, looping_job("extra", (0.5,),
                                               duration_s=0.01)),
        lambda ms: ms[0].migrate(ms[0].cores[0].dispatcher._queue[-1], 0, 3),
        lambda ms: len(ms[0].cores[0].dispatcher._queue) > 1, "transient"),
    "offline": (
        {}, _power(False), _power(True),
        lambda ms: ms[0].cores[1].offline, "offline"),
    "halted": (
        {}, _idle_style(IdleStyle.HALT), _idle_style(IdleStyle.HOT_LOOP),
        lambda ms: ms[0].cores[3].config.idle_style is IdleStyle.HALT,
        "halted"),
}


@pytest.mark.parametrize("state", sorted(PARKING_STATES))
def test_state_parks_its_machine_until_it_clears(state):
    """Each state the columns cannot run parks its machine (and only
    that machine) while it holds at a span start, and the machine is
    resident again once it clears; every span replays bit-equal."""
    kwargs, hold, clear, holds, label = PARKING_STATES[state]
    spans = []

    def script(ms, advance):
        for k in range(8):
            if k == 1:
                hold(ms)
            if k == 5 and clear is not None:
                clear(ms)
            held = holds(ms)
            span = advance(0.01)
            if span is not None:
                spans.append((held, span))

    run_two_ways(lambda: parking_pair(**kwargs), script)
    flags = [held for held, _ in spans]
    n = flags.count(True)
    assert n and flags == [False] + [True] * n + [False] * (7 - n)
    for held, span in spans:
        assert span == ((1, {label: 1}) if held else (2, None))


def run_sim_two_ways(run):
    """``run()`` through the fleet columns and through the scalar
    reference (``scalar_reference()``); the two must return equal machine
    states.  Returns the column run's result."""
    cols = run()
    with scalar_reference():
        scal = run()
    assert cols[0] == scal[0]
    return cols


def test_power_down_parks_only_while_cores_are_off():
    """A one-machine ``PowerDownGovernor`` run whose budget drops (two
    cores power off) and later rises (they come back): every span with an
    offline core parks the machine (``offline``), every other span rides
    the columns, and the run matches the scalar reference exactly."""
    limit_w = 2.5 * POWER4_TABLE.max_power_w    # room for two cores

    def run():
        m = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=37)
        for c in range(4):
            m.assign(c, looping_job(f"pd{c}", (0.9, 0.3), duration_s=0.01))
        sim = Simulation(m)
        governor = PowerDownGovernor(m)
        governor.attach(sim)
        dark = []
        for k in range(12):
            if k == 3:
                governor.set_power_limit(limit_w, sim.now_s)
            elif k == 8:
                governor.set_power_limit(None, sim.now_s)
            dark.append(any(c.offline for c in m.cores))
            sim.run_for(0.013)    # one span: no event is scheduled
        return machine_state(m), dark, sim.fleet_advances, \
            dict(sim.fleet_fallbacks)

    _, dark, advances, fallbacks = run_sim_two_ways(run)
    assert dark == [False] * 3 + [True] * 5 + [False] * 4
    assert fallbacks == {"offline": 5}
    assert advances == 12 - 5


def test_halting_core_parks_only_while_it_idles():
    """A halt-style machine serving requests beside a hot peer: while a
    core's queue is empty that core halts and parks its machine
    (``halted``); requests arriving again admit it back.  Every other
    span rides the columns, and the run matches the scalar reference
    exactly."""
    def run():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0,
                                                 idle_style=IdleStyle.HALT)),
            seed=38)
        m.assign(0, looping_job("bg", (0.8, 0.3), duration_s=0.01))
        for k in range(3):
            m.assign(1, once_request(f"r{k}", 0.7, 0.012, phases=1 + k % 2))
        peer = SMPMachine(
            MachineConfig(num_cores=1,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            seed=39)
        peer.assign(0, looping_job("peer", (0.6,)))
        sim = Simulation([m, peer])
        idle = []
        for k in range(14):
            if k == 8:
                for j in range(2):
                    m.core(1).add_job(once_request(f"late{j}", 0.9, 0.01))
            idle.append(m.cores[1].is_idle)
            sim.run_for(0.01)     # one span: no event is scheduled
        return fleet_state([m, peer]), idle, sim.fleet_advances, \
            dict(sim.fleet_fallbacks)

    _, idle, advances, fallbacks = run_sim_two_ways(run)
    halted = idle.count(True)
    # Drained before the late requests arrive, busy again, drained again.
    assert not idle[0] and not idle[8] and any(idle[:8]) and idle[-1]
    assert fallbacks == {"halted": halted}
    assert advances == 2 * len(idle) - halted


# -- fallback accounting -----------------------------------------------------------


class HookedMachine(SMPMachine):
    def _advance_to(self, t_end):   # pragma: no cover - behaviour unchanged
        super()._advance_to(t_end)


def hooked_pair(seed=4):
    """A subclassed machine (always delegated) and a stock twin."""
    ms = []
    for cls in (HookedMachine, SMPMachine):
        m = cls(MachineConfig(num_cores=2,
                              core_config=CoreConfig(latency_jitter_sigma=0.0)),
                seed=seed)
        m.assign(0, looping_job("hooked", (0.8,)))
        ms.append(m)
    return ms


def test_subclassed_machine_falls_back_and_is_counted():
    hooked, plain = hooked_pair()
    assert advance_machines([hooked, plain], 0.05) == (1, {"subclass": 1})
    # The delegate advanced through machine.advance: same result as the
    # identically-seeded plain machine that went through columns.
    assert machine_state(hooked) == machine_state(plain)


def test_enabled_telemetry_stays_resident():
    """Live telemetry does not force the scalar path: machines stay in
    columns, the sim_* counters batch at span boundaries, and the
    phase-transition event stream (counts, timestamps, payloads) is
    identical to the scalar reference."""
    def build():
        ms = []
        for i in range(2):
            m = SMPMachine(
                MachineConfig(num_cores=2,
                              core_config=CoreConfig(
                                  latency_jitter_sigma=0.015 * i)),
                seed=40 + i)
            m.assign(0, looping_job(f"tel{i}", (0.9, 0.25), duration_s=0.02))
            ms.append(m)
        return ms

    def events(tel):
        return [(e.kind, e.sim_time_s, dict(e.attrs))
                for e in tel.events.events_of(EVENT_PHASE_TRANSITION)]

    tel_cols = Telemetry()
    with use_telemetry(tel_cols):
        cols = build()
        for _ in range(6):
            assert advance_machines(cols, 0.017) == (2, None)

    tel_scal = Telemetry()
    with use_telemetry(tel_scal):
        scal = build()
        for _ in range(6):
            for m in scal:
                m.advance(0.017)

    assert fleet_state(cols) == fleet_state(scal)
    assert events(tel_cols)    # phases actually crossed
    assert events(tel_cols) == events(tel_scal)


def run_with_events(build, spans):
    """Advance ``build()`` across ``spans`` twice under live telemetry,
    through the columns and through ``machine.advance``; exact state
    equality.  Returns both runs' phase-transition and PSU events, in
    emission order, and the column run's machines."""
    def run(advance_all):
        tel = Telemetry()
        with use_telemetry(tel):
            ms = build()
            for dt in spans:
                advance_all(ms, dt)
            flush_machines(ms)
        kinds = (EVENT_PHASE_TRANSITION, EVENT_PSU_FAILURE)
        return ms, [(e.kind, e.sim_time_s, dict(e.attrs))
                    for e in tel.events.history if e.kind in kinds]

    def scalar(ms, dt):
        for m in ms:
            m.advance(dt)

    cols, cols_events = run(lambda ms, dt: advance_machines(ms, dt))
    scal, scal_events = run(scalar)
    assert fleet_state(cols) == fleet_state(scal)
    return cols, cols_events, scal_events


def test_banked_walk_emits_events_in_scalar_order():
    """A banked machine's multi-chunk walk replays each lane across every
    chunk, but its events leave as the scalar loop emits them: chunk by
    chunk, cores in order within a chunk."""
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=2,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=43)
        m.assign(0, looping_job("a", (0.9, 0.3), duration_s=0.013))
        m.assign(1, looping_job("b", (0.7, 0.2), duration_s=0.021))
        return [m]

    _, cols, scal = run_with_events(build, [0.05] * 3)
    assert len(cols) > 10    # both cores cross phases inside every span
    assert cols == scal


def test_banked_walk_orders_psu_events_after_their_chunk():
    """A cascade fires inside a multi-chunk span full of phase crossings
    (the bank only counts it): its PSU failure event sits among the phase
    transitions exactly where the scalar chunk loop emits it."""
    def build():
        m = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.02)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=False),
            seed=44)
        for c in range(4):
            m.assign(c, looping_job(f"hot{c}", (1.0, 0.4),
                                    duration_s=0.011 + 0.004 * c))
        m.supply_bank.fail_supply(0)
        return [m]

    ms, cols, scal = run_with_events(build, [0.3, 1.2])
    assert ms[0].supply_bank.cascade_count == 1
    cascade = [k for k, e in enumerate(cols)
               if e[0] == EVENT_PSU_FAILURE and e[2]["cascade"]]
    assert len(cascade) == 1 and 0 < cascade[0] < len(cols) - 1
    assert cols == scal


def fleet_series(telemetry):
    """Every ``sim_fleet_*`` series in ``telemetry``'s registry."""
    return {(name, tuple(sorted(series["labels"].items()))): series["value"]
            for name, metric in telemetry.snapshot()["metrics"].items()
            if name.startswith("sim_fleet_")
            for series in metric["series"]}


def test_fallback_reason_breakdown_and_labels():
    """Counted fallbacks carry a reason: the Simulation's own tally and
    the ``reason``-labelled series in *its* backend both move, and the
    process-default backend gains nothing."""
    telemetry, default = Telemetry(), Telemetry()
    with use_telemetry(default):
        sim = Simulation(hooked_pair(), telemetry=telemetry)
        for _ in range(5):
            sim.run_for(0.01)
    assert sim.fleet_advances == 5
    assert sim.fleet_fallbacks == {"subclass": 5}
    assert fleet_series(telemetry) == {
        ("sim_fleet_advances_total", ()): 5.0,
        ("sim_fleet_fallbacks_total", ()): 5.0,
        ("sim_fleet_fallbacks_total", (("reason", "subclass"),)): 5.0,
    }
    assert fleet_series(default) == {}


def test_simulations_keep_independent_tallies():
    """Two runs advanced alternately in one process each count only their
    own machine-spans."""
    a = Simulation(hooked_pair(seed=4))
    b = Simulation(hetero_fleet(12, n=2))
    for _ in range(3):
        a.run_for(0.02)
        b.run_for(0.05)
    assert (a.fleet_advances, a.fleet_fallbacks) == (3, {"subclass": 3})
    assert (b.fleet_advances, b.fleet_fallbacks) == (9, {})


def test_zero_fallback_run_registers_both_fleet_counters():
    """A live backend exports both unlabelled ``sim_fleet_*`` counters
    even when no machine-span was delegated."""
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        Simulation(hetero_fleet(5, n=2)).run_for(0.1)
    assert fleet_series(telemetry) == {
        ("sim_fleet_advances_total", ()): 3.0,
        ("sim_fleet_fallbacks_total", ()): 0.0,
    }


def test_advance_machines_returns_span_tally():
    """The span's tally is the return value: every machine resident, one
    delegated machine, and a whole-span ``bank`` fallback where a raising
    cascade would cut the span short."""
    assert advance_machines(hetero_fleet(8, n=3), 0.02) == (4, None)
    assert advance_machines(hooked_pair(), 0.02) == (1, {"subclass": 1})
    assert advance_machines(hooked_pair(), 0.0) == (0, None)

    banked = SMPMachine(
        MachineConfig(num_cores=4,
                      core_config=CoreConfig(latency_jitter_sigma=0.0)),
        supply_bank=SupplyBank.example_p630(raise_on_cascade=True), seed=5)
    for c in range(4):
        banked.assign(c, looping_job(f"hot{c}", (1.0,)))
    peer = hetero_fleet(9, n=1)[0]
    assert advance_machines([banked, peer], 0.3) == (2, None)
    banked.supply_bank.fail_supply(0, now_s=banked.now_s)
    # Record the delegations instead of raising, so the span returns.
    delegated = []
    for m in (banked, peer):
        m.advance = lambda dt, m=m: delegated.append((m, dt))
    assert advance_machines([banked, peer], 1.2) == (0, {"bank": 2})
    assert delegated == [(banked, 1.2), (peer, 1.2)]


def test_raising_cascade_falls_back_whole_span():
    """``raise_on_cascade=True`` cuts the pure plan short, so the whole
    span falls back (reason ``bank``) and ``machine.advance`` raises
    :class:`CascadeFailureError` at the identical chunk with identical
    pre-raise state on both paths."""
    def build():
        banked = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=True),
            seed=5)
        for c in range(4):
            banked.assign(c, looping_job(f"hot{c}", (1.0,)))
        return [banked]

    def run(ms, advance):
        advance(0.3)
        ms[0].supply_bank.fail_supply(0, now_s=ms[0].now_s)
        with pytest.raises(CascadeFailureError):
            advance(1.2)

    cols = build()
    run(cols, lambda dt: advance_machines(cols, dt))
    flush_machines(cols)

    scal = build()
    run(scal, lambda dt: scal[0].advance(dt))
    assert fleet_state(cols) == fleet_state(scal)


@pytest.mark.parametrize("peer", [False, True], ids=["alone", "peer"])
@pytest.mark.parametrize("spans", ["multi-chunk", "one-chunk"])
def test_raising_cascade_on_the_last_boundary_falls_back_whole_span(spans,
                                                                    peer):
    """A raising cascade on a span's last (or only) observation boundary
    cuts no chunk, yet its observe raises: the span still falls back
    whole, so the banked machine's clock, lanes and ledger, and a peer
    listed after it, stop exactly where the scalar loop leaves them."""
    def build():
        banked = SMPMachine(
            MachineConfig(num_cores=4,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            supply_bank=SupplyBank.example_p630(raise_on_cascade=True),
            seed=5)
        for c in range(4):
            banked.assign(c, looping_job(f"hot{c}", (1.0,)))
        ms = [banked]
        if peer:
            other = SMPMachine(
                MachineConfig(num_cores=1,
                              core_config=CoreConfig(
                                  latency_jitter_sigma=0.0)),
                seed=7)
            other.assign(0, looping_job("peer", (0.6,)))
            ms.append(other)
        return ms

    def script(ms, advance):
        advance(0.25)
        ms[0].supply_bank.fail_supply(0, now_s=ms[0].now_s)
        advance(0.25)    # the overload episode opens at 0.26 s
        with pytest.raises(CascadeFailureError):
            if spans == "multi-chunk":
                advance(0.76)    # the cascade lands on boundary 76 of 76
            else:
                while True:
                    advance(0.005)

    ms, (advances, fallbacks) = run_two_ways(build, script)
    assert ms[0].supply_bank.cascade_count == 1
    assert fallbacks == {} and advances > 0
    if spans == "multi-chunk":
        assert ms[0].now_s == pytest.approx(1.26)
        assert ms[-1].now_s == pytest.approx(1.26 if not peer else 0.5)


def raising_bank_fleet(outside):
    """Four hot cores behind a raising bank, ahead of a stock peer.  The
    banked machine is ``"parked"`` (core 0 holds a ONCE request) or a
    ``"delegate"`` (a twin right behind it shares its bank)."""
    bank = SupplyBank.example_p630(raise_on_cascade=True)
    config = MachineConfig(num_cores=4,
                           core_config=CoreConfig(latency_jitter_sigma=0.0))
    banked = SMPMachine(config, supply_bank=bank, seed=5)
    for c in range(4):
        banked.assign(c, looping_job(f"hot{c}", (1.0,)))
    ms = [banked]
    if outside == "parked":
        banked.assign(0, once_request("req", 1.0, 5.0))
    else:
        twin = SMPMachine(config, supply_bank=bank, seed=6)
        twin.assign(0, looping_job("twin", (0.9,)))
        ms.append(twin)
    peer = SMPMachine(
        MachineConfig(num_cores=1,
                      core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=7)
    peer.assign(0, looping_job("peer", (0.6,)))
    ms.append(peer)
    return ms


@pytest.mark.parametrize("outside", ["parked", "delegate"])
def test_raising_cascade_outside_the_columns_falls_back_whole_span(outside):
    """A raising bank on a parked or delegated machine makes each span
    fall back whole, so the peer listed after it stays where the scalar
    loop leaves it when ``machine.advance`` raises (0.3 s, not 1.5 s)."""
    def script(ms, advance):
        advance(0.3)
        ms[0].supply_bank.fail_supply(0, now_s=ms[0].now_s)
        with pytest.raises(CascadeFailureError):
            advance(1.2)

    ms, tally = run_two_ways(lambda: raising_bank_fleet(outside), script)
    assert tally == (0, {"bank": len(ms)})
    assert ms[-1].now_s == pytest.approx(0.3)


def test_shared_bank_machines_stay_delegates():
    """A bank shared between machines needs interleaved cross-machine
    observations that the per-machine plan/replay cannot reproduce: those
    machines delegate (reason ``bank``) while stock peers stay resident,
    and both paths still agree exactly."""
    def build():
        bank = SupplyBank.example_p630(raise_on_cascade=False)
        ms = []
        for i in range(2):
            m = SMPMachine(
                MachineConfig(num_cores=2,
                              core_config=CoreConfig(
                                  latency_jitter_sigma=0.0)),
                supply_bank=bank, seed=60 + i)
            m.assign(0, looping_job(f"sh{i}", (0.9, 0.4)))
            ms.append(m)
        peer = SMPMachine(
            MachineConfig(num_cores=1,
                          core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=66)
        peer.assign(0, looping_job("peer", (0.7,)))
        ms.append(peer)
        return ms

    def script(ms, advance):
        advance(0.12)
        advance(0.05)

    _, tally = run_two_ways(build, script)
    assert tally == (2, {"bank": 4})


# -- lazy flush / view synchronisation ---------------------------------------------


def test_snapshot_mid_run_sees_exact_counters():
    """With flush=False the columns are authoritative, but snapshot()
    flushes through the bank hook: mid-run counter reads are exact."""
    def build():
        m = SMPMachine(MachineConfig(
            num_cores=2, core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=3)
        m.assign(0, looping_job("w", (0.85, 0.2)))
        return [m]

    cols = build()
    for _ in range(7):
        advance_machines(cols, 0.013, flush=False)
    snap_cols = cols[0].cores[0].counters.snapshot()

    ref = build()
    for _ in range(7):
        ref[0].advance(0.013)
    snap_ref = ref[0].cores[0].counters.snapshot()
    assert snap_cols.as_tuple() == snap_ref.as_tuple()

    # Residency and energy sync on flush.
    flush_machines(cols)
    assert fleet_state(cols) == fleet_state(ref)


def test_driver_flushes_on_run_until_return():
    def build():
        m = SMPMachine(MachineConfig(
            num_cores=1, core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=8)
        m.assign(0, looping_job("d", (0.75,)))
        return m

    m = build()
    sim = Simulation(m)
    sim.every(0.01, lambda t: None)   # event-dense run, all through columns
    sim.run_for(0.5)

    with scalar_reference():
        ref = build()
        sim2 = Simulation(ref)
        sim2.every(0.01, lambda t: None)
        sim2.run_for(0.5)
    assert machine_state(m) == machine_state(ref)


def test_reset_fleet_dissolves_columns():
    ms = hetero_fleet(55, n=3)
    advance_machines(ms, 0.02, flush=False)
    fl = ms[0].__dict__["_fleet_cache"][1]
    assert fl._valid
    reset_fleet(ms)
    assert not fl._valid
    assert ms[0].__dict__.get("_fleet_cache") is None
    assert all(c._fleet is None for m in ms for c in m.cores)
    # A structural mutation the hooks cannot see is now safe; the rebuilt
    # fleet holds the newly banked machine as a banked lane group, parked
    # while its core 1 queues two jobs (the chunk walk runs sole jobs).
    ms[0].supply_bank = SupplyBank.example_p630(raise_on_cascade=False)
    advance_machines(ms, 0.02)
    fl = ms[0].__dict__["_fleet_cache"][1]
    assert fl._parked == {ms[0]: "transient"}
    assert fl._lane_banked[fl._lane_of[ms[0].cores[0]]]


def test_overlapping_fleets_steal_cleanly():
    """A machine moving between two machine lists detaches from the stale
    fleet (flushing it) before joining the new one."""
    ms = hetero_fleet(81, n=3)
    advance_machines(ms, 0.02, flush=False)
    sub = [ms[0], ms[1]]
    advance_machines(sub, 0.02, flush=False)  # steals lanes from the first
    flush_machines(sub)
    assert ms[0]._now_s == pytest.approx(0.04)
    # The machine left behind was flushed when its fleet dissolved.
    assert ms[2]._now_s == pytest.approx(0.02)
    assert ms[2].ledger.account("non_cpu").last_time_s == pytest.approx(0.02)


# -- fault scenarios end-to-end ----------------------------------------------------


@pytest.mark.parametrize("scenario,sigma", [
    pytest.param(scenario, sigma,
                 id=scenario if sigma == 0.0 else f"{scenario}-noisy")
    for scenario in ("lossy", "crash", "chaos") for sigma in (0.0, 0.005)])
def test_fault_scenarios_end_to_end(scenario, sigma):
    """A faulted coordinator run over a small cluster is bit-identical
    through the fleet columns and the scalar reference — loss, crash
    windows, partitions, degraded scheduling, and read noise drawn under
    crashes."""
    def run():
        cluster = Cluster.homogeneous(
            4,
            machine_config=MachineConfig(
                num_cores=2,
                core_config=CoreConfig(latency_jitter_sigma=0.0)),
            seed=2005)
        for i, node in enumerate(cluster.nodes):
            node.machine.assign(0, looping_job(f"svc{i}", (0.9, 0.3)))
        table = cluster.nodes[0].machine.table
        coord = ClusterCoordinator(
            cluster,
            CoordinatorConfig(
                power_limit_w=0.6 * 4 * 2 * table.max_power_w,
                counter_noise_sigma=sigma,
                sample_period_s=0.05, schedule_period_s=0.1),
            faults=fault_scenario(scenario, seed=99),
            seed=7)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(2.5)   # crosses the [1, 2) fault windows
        log = [(e.time_s, e.node_id, e.proc_id, e.freq_hz)
               for e in coord.log.schedule_entries]
        return fleet_state(cluster.machines), log

    state_on, log_on = run()
    with scalar_reference():
        state_off, log_off = run()
    assert log_on == log_off
    assert state_on == state_off


# -- whole experiments -------------------------------------------------------------


@pytest.mark.parametrize("experiment_id", ["failover", "table3",
                                           "cluster_failover", "migration",
                                           "curtailment", "cluster_cap"])
def test_experiment_exports_match_scalar_path(experiment_id):
    """Whole experiments, not just hand-built fixtures: the exported
    result is byte-identical through the fleet columns and with every
    machine on the scalar path."""
    def exported():
        result = run_experiment(experiment_id, seed=2005, fast=True)
        return json.dumps(result_to_dict(result), sort_keys=True)

    on = exported()
    with scalar_reference():
        off = exported()
    assert on == off
