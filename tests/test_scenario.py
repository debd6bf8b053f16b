"""The one-machine front door: run to completion, its measurement window,
the seeding rule, and the import graph of ``import repro``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.daemon import DaemonConfig, FvsstDaemon
from repro.errors import ConfigError
from repro.scenario import Scenario
from repro.sim.machine import MachineConfig, SMPMachine
from repro.workloads.profiles import profile_by_name


def _states(generators) -> list[dict]:
    return [g.bit_generator.state for g in generators]


class TestRunToCompletion:
    def test_arithmetic_pinned(self):
        # gzip (body_repeats=1) to completion on one unmanaged core, seed 0:
        # elapsed time to the completion instant, throughput over it, and
        # core energy scaled back over the last step's overshoot.  "none"
        # draws nothing from its seed, so these bits cannot move with the
        # governor's seed.
        run = (Scenario(num_cores=1, seed=0)
               .with_job(0, profile_by_name("gzip").job(body_repeats=1))
               .with_governor("none", power_limit_w=None)
               .run_to_completion())
        assert run.elapsed_s.hex() == "0x1.27b06ae2a02d5p+1"
        assert run.throughput.hex() == "0x1.125bba59060cap+30"
        assert run.core_energy_j(0).hex() == "0x1.4368f4e7df319p+8"
        # The 0.5 s steps overshoot the completion instant.
        assert run.sim.now_s > run.start_s + run.elapsed_s
        assert run.cpu_energy_j == run.core_energy_j(0)

    def test_window_ends_at_last_completion(self):
        short = profile_by_name("gzip").job(body_repeats=1)
        long_ = profile_by_name("mcf").job(body_repeats=1)
        run = (Scenario(num_cores=2, seed=3)
               .with_job(0, short).with_job(1, long_)
               .run_to_completion())
        assert short.done and long_.done
        last = max(short.completed_at_s, long_.completed_at_s)
        assert run.elapsed_s == last - run.start_s
        retired = short.instructions_retired + long_.instructions_retired
        assert run.throughput == pytest.approx(retired / run.elapsed_s)

    def test_needs_a_job(self):
        with pytest.raises(ConfigError, match="at least one job"):
            Scenario(num_cores=1).run_to_completion()

    def test_settle_is_outside_the_window(self):
        run = (Scenario(num_cores=1, seed=2)
               .with_governor("none")
               .settle(1.0)
               .with_job(0, profile_by_name("gzip").job(loop=True))
               .run(1.0))
        assert run.start_s == 1.0 and run.elapsed_s == 1.0
        # Hot idle through the settle, then a CPU-bound job at f_max: the
        # window's energy is one second of the core, not two.
        total = run.machine.ledger.energy_of("core0")
        assert 0.0 < run.core_energy_j(0) < total


class TestSeeding:
    def test_core_jitter_and_reader_noise_are_distinct_streams(self):
        captured = {}

        def capture(res, t):
            captured["cores"] = _states(c._rng for c in res.machine.cores)
            captured["readers"] = _states(r._rng
                                          for r in res.governor.readers)

        (Scenario(num_cores=4, seed=123)
         .with_job(0, profile_by_name("mcf").job(loop=True))
         .with_governor("fvsst")
         .at(0.0, capture)
         .run(0.05))
        assert len(captured["cores"]) == len(captured["readers"]) == 4
        for core_state in captured["cores"]:
            assert core_state not in captured["readers"]

        # What the rule prevents: one integer for both would give core i
        # and reader i the same stream.
        machine = SMPMachine(MachineConfig(num_cores=4), seed=123)
        daemon = FvsstDaemon(machine, DaemonConfig(), seed=123)
        assert (_states(c._rng for c in machine.cores)
                == _states(r._rng for r in daemon.readers))


def test_import_repro_leaves_experiments_unloaded():
    code = ("import sys, repro; "
            "print('repro.experiments' in sys.modules)")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "False"


def test_runs_leave_scipy_unloaded():
    # scipy serves only the Lava fit (fvsst run table1); a run uses the
    # frozen curve, so neither the import nor a one-machine run loads it.
    code = ("import sys, repro; "
            "print('scipy' in sys.modules); "
            "from repro.workloads.profiles import profile_by_name; "
            "repro.Scenario(num_cores=1, seed=0)"
            ".with_job(0, profile_by_name('gzip').job(loop=True))"
            ".with_governor('fvsst').run(0.2); "
            "print('scipy' in sys.modules)")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["False", "False"]
