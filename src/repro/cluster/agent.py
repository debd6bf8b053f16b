"""The per-node agent, and the sampler its coordinator runs.

Each node runs a lightweight agent (the cluster analogue of the fvsst
daemon's data-collection half): it samples local counters every ``t``,
aggregates them into per-processor summaries, and on request produces a
:class:`~repro.cluster.protocol.NodeReport`.  Frequency commands from the
coordinator are applied locally through the same actuators the single-node
daemon uses.

Sampling is columnar: the agents of one coordinator share one
:class:`AgentSampler` and one periodic event, which reads the counters of
all their cores at once (:func:`~repro.sim.fleet.gather_counters`) into a
:class:`~repro.sim.counters.CounterBlock`, a row per core, and adds the
deltas into array windows.  A lone agent runs the one-agent case.

Two delivery-failure rules matter on a lossy network:

* counter windows survive until the coordinator *accepts* the report
  (:meth:`NodeAgent.confirm_report`); a dropped report costs a round trip,
  not the data;
* commands are applied by explicit processor id and are idempotent, so a
  retransmitted command is harmless and a stale one (older than the newest
  applied) is ignored.
"""

from __future__ import annotations

import numpy as np

from ..errors import ClusterError
from ..sim.counters import CounterBlock
from ..sim.driver import Simulation
from ..sim.fleet import gather_counters
from ..sim.node import ClusterNode
from ..sim.rng import spawn_rngs
from ..telemetry import EVENT_FREQUENCY_CHANGE, Telemetry, get_telemetry
from ..units import check_positive
from .faults import FaultSchedule
from .protocol import REPORT_FIELDS, FrequencyCommand, NodeReport

__all__ = ["NodeAgent", "AgentSampler"]


class NodeAgent:
    """Counter collection and command application on one node."""

    def __init__(self, node: ClusterNode, *,
                 sample_period_s: float = 0.010,
                 counter_noise_sigma: float = 0.005,
                 idle_detection: bool = False,
                 telemetry: Telemetry | None = None,
                 faults: FaultSchedule | None = None,
                 seed: int | None = None) -> None:
        check_positive(sample_period_s, "sample_period_s")
        self.node = node
        self.sample_period_s = sample_period_s
        self.counter_noise_sigma = counter_noise_sigma
        self.idle_detection = idle_detection
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.faults = faults
        m = self.telemetry.metrics
        self._m_samples = m.counter(
            "agent_counter_samples_total",
            "Per-processor counter reads across all node agents")
        self._m_reports = m.counter(
            "agent_reports_total", "Node reports produced for the coordinator")
        self._m_commands = m.counter(
            "agent_commands_applied_total",
            "Frequency commands applied by node agents")
        #: One read-noise stream per processor.
        self._rngs = spawn_rngs(seed, node.machine.num_cores)
        self._idle_flags = [False] * node.machine.num_cores
        self._attached = False
        #: Whether a report awaits :meth:`confirm_report`.
        self._pending = False
        #: Decision time of the newest applied command (stale-command guard).
        self._last_command_time_s = float("-inf")
        # Sets ``_sampler`` and this agent's ``_cols`` in its windows (a
        # coordinator regroups its agents under one sampler).
        AgentSampler([self])

    def attach(self, sim: Simulation) -> None:
        """Install the periodic sampler of this agent's group (this agent
        alone, unless a coordinator grouped it)."""
        self._sampler.attach(sim)

    # -- crash state -------------------------------------------------------------

    def crashed(self, now_s: float) -> bool:
        """Whether the agent is down at ``now_s`` (manual or scheduled)."""
        if self.node.crashed:
            return True
        return (self.faults is not None
                and self.faults.node_crashed(self.node.node_id, now_s))

    def _on_idle_signal(self, core_id: int, is_idle: bool) -> None:
        self._idle_flags[core_id] = is_idle

    # -- protocol ----------------------------------------------------------------

    def make_report(self, now_s: float) -> NodeReport:
        """Summarise the current windows into a report.

        The windows are *retained* until :meth:`confirm_report` — on a
        lossy network the report may never arrive, and clearing eagerly
        would destroy the window data with it.  An unconfirmed report is
        simply superseded: the next one covers the same samples plus
        whatever accumulated since.
        """
        cols = self._cols
        self._sampler.since_report[:, cols] = 0.0
        self._pending = True
        if self.telemetry.enabled:
            self._m_reports.inc()
        return NodeReport(node_id=self.node.node_id, time_s=now_s,
                          proc_ids=tuple(range(cols.stop - cols.start)),
                          counters=self._sampler.since_confirm[:, cols].copy(),
                          idle_signaled=tuple(self._idle_flags))

    def confirm_report(self) -> None:
        """Acknowledge delivery of the last report: drop its samples.

        Only the samples the report covered are dropped; anything sampled
        after :meth:`make_report` stays for the next window.
        """
        if self._pending:
            windows = self._sampler
            windows.since_confirm[:, self._cols] = \
                windows.since_report[:, self._cols]
            self._pending = False

    def apply_command(self, command: FrequencyCommand, now_s: float) -> None:
        """Set local frequencies per the coordinator's decision.

        Commands address processors by explicit id (:attr:`FrequencyCommand.proc_ids`)
        so a partial command — e.g. one excluding an offline processor —
        retunes exactly the processors it names.  Stale commands (older
        than the newest applied) are dropped: with retransmits a delayed
        duplicate of an old decision must not override a newer one.
        """
        if command.node_id != self.node.node_id:
            raise ClusterError(
                f"command for node {command.node_id} delivered to node "
                f"{self.node.node_id}"
            )
        cores = self.node.machine.cores
        targets = []
        for proc_id, freq in zip(command.proc_ids, command.freqs_hz):
            if not 0 <= proc_id < len(cores):
                raise ClusterError(
                    f"command for node {command.node_id} addresses "
                    f"processor {proc_id}; node has {len(cores)}"
                )
            targets.append((cores[proc_id], freq))
        if command.time_s < self._last_command_time_s:
            return
        self._last_command_time_s = command.time_s
        tel = self.telemetry
        for core, freq in targets:
            old_hz = core.frequency_setting_hz
            if tel.enabled and old_hz != freq:
                tel.emit(EVENT_FREQUENCY_CHANGE, sim_time_s=now_s,
                         node=self.node.node_id, proc=core.core_id,
                         old_hz=old_hz, new_hz=freq)
            core.set_frequency(freq, now_s)
        if tel.enabled:
            self._m_commands.inc()


class AgentSampler:
    """One periodic counter sampler for agents that share ``t`` and phase.

    Its windows are two running-sum matrices, rows :data:`REPORT_FIELDS`
    and a column per processor: since each agent's last confirmed report,
    and since its last report.  Each tick adds to sums that start at 0.0,
    so a window is bitwise the sequential ``sum()`` of its samples.
    """

    def __init__(self, agents: list[NodeAgent]) -> None:
        self.agents = agents
        self.cores = [c for a in agents for c in a.node.machine.cores]
        # Nothing has advanced since the agents were built: this is each
        # per-core reader's construction-time baseline.
        self.block = CounterBlock(
            gather_counters(self.cores),
            [rng for a in agents for rng in a._rngs],
            noise_sigma=agents[0].counter_noise_sigma)
        self.since_confirm = np.zeros((len(REPORT_FIELDS), len(self.cores)))
        self.since_report = np.zeros_like(self.since_confirm)
        #: Agents that were down at the last tick.
        self._down: set[NodeAgent] = set()
        lo = 0
        for agent in agents:
            agent._sampler = self
            agent._cols = slice(lo, lo + agent.node.machine.num_cores)
            lo = agent._cols.stop

    def attach(self, sim: Simulation) -> None:
        """Register the one sampling event (and the agents' idle hooks)."""
        for agent in self.agents:
            if agent._attached:
                raise ClusterError(
                    f"agent of node {agent.node.node_id} already attached")
        for agent in self.agents:
            agent._attached = True
            if agent.idle_detection:
                for core in agent.node.machine.cores:
                    core.idle_detector.enabled = True
                    core.idle_detector.subscribe(agent._on_idle_signal)
        lead = self.agents[0]
        sim.every(lead.sample_period_s, self._on_tick,
                  name=f"agent-n{lead.node.node_id}-sample")

    def _on_tick(self, now_s: float) -> None:
        down = [a for a in self.agents if a.crashed(now_s)]
        # A crashed agent's rows are still read: its counters keep
        # running, and its recovery starts a clean window.
        deltas, interval = self.block.sample(now_s,
                                             gather_counters(self.cores))
        live, live_rows = slice(None), deltas.shape[1]
        if down or self._down:
            live = np.ones(live_rows, dtype=bool)
            for agent in down:
                if agent not in self._down:
                    # The crash wiped the agent's process state: windows
                    # and any unconfirmed report are gone.
                    self.since_confirm[:, agent._cols] = 0.0
                    self.since_report[:, agent._cols] = 0.0
                    agent._pending = False
                live[agent._cols] = False
            self._down = set(down)
            live_rows = int(np.count_nonzero(live))
        for sums in (self.since_confirm, self.since_report):
            sums[:-1, live] += deltas[:, live]
            sums[-1, live] += interval
        lead = self.agents[0]
        if lead.telemetry.enabled:
            lead._m_samples.inc(live_rows)
