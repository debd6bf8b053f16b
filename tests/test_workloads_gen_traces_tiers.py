"""Workload generator, traces, and cluster tiers."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.model.latency import POWER4_LATENCIES
from repro.units import ghz
from repro.workloads.generator import GeneratorSpec, WorkloadGenerator
from repro.workloads.job import LoopMode
from repro.workloads.tiers import (
    TIER_APP,
    TIER_DB,
    TIER_WEB,
    tier_job,
    tiered_cluster_assignment,
)
from repro.workloads.traces import (PhaseTrace, RateTrace, record_trace,
                                    replay_trace)


class TestWorkloadGenerator:
    def test_seeded_determinism(self):
        a = WorkloadGenerator(42).jobs(3)
        b = WorkloadGenerator(42).jobs(3)
        for ja, jb in zip(a, b):
            assert [p.n_mem_per_instr for p in ja.phases] == \
                [p.n_mem_per_instr for p in jb.phases]

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(1).phase()
        b = WorkloadGenerator(2).phase()
        assert a.n_mem_per_instr != b.n_mem_per_instr

    def test_phase_count_within_spec(self):
        spec = GeneratorSpec(phases_per_job_low=2, phases_per_job_high=4)
        gen = WorkloadGenerator(7, spec)
        for job in gen.jobs(10):
            assert 2 <= len(job.phases) <= 4

    def test_ratio_band_respected(self):
        spec = GeneratorSpec(ratio_low=0.1, ratio_high=1.0)
        gen = WorkloadGenerator(3, spec)
        for _ in range(20):
            phase = gen.phase()
            sig = phase.true_signature(POWER4_LATENCIES)
            ratio = sig.core_cpi / (sig.mem_time_per_instr_s * ghz(1.0))
            assert 0.05 < ratio < 2.0  # band up to share rounding

    def test_invalid_spec_rejected(self):
        with pytest.raises(WorkloadError):
            GeneratorSpec(ratio_low=2.0, ratio_high=1.0)
        with pytest.raises(WorkloadError):
            GeneratorSpec(phases_per_job_low=0)

    def test_bad_count_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(1).jobs(0)


class TestTraces:
    def test_roundtrip_preserves_phases(self):
        job = WorkloadGenerator(5).job(loop=True)
        trace = record_trace(job)
        rebuilt = replay_trace(trace)
        assert rebuilt.loop is LoopMode.LOOP
        assert len(rebuilt.phases) == len(job.phases)
        for orig, copy in zip(job.phases, rebuilt.phases):
            assert copy.n_mem_per_instr == orig.n_mem_per_instr
            assert copy.instructions == orig.instructions

    def test_file_roundtrip(self, tmp_path):
        job = WorkloadGenerator(6).job(loop=False)
        trace = record_trace(job)
        path = tmp_path / "trace.json"
        trace.dump(path)
        loaded = PhaseTrace.load(path)
        assert loaded == trace

    def test_replay_gives_fresh_job(self):
        job = WorkloadGenerator(8).job(loop=False)
        job.mark_started(0.0)
        rebuilt = replay_trace(record_trace(job), name="copy")
        assert rebuilt.name == "copy"
        assert rebuilt.instructions_retired == 0.0

    def test_malformed_dict_rejected(self):
        with pytest.raises(WorkloadError):
            PhaseTrace.from_dict({"version": 99})
        with pytest.raises(WorkloadError):
            PhaseTrace.from_dict({"version": 1, "job_name": "x",
                                  "loop": False, "records": [{"bogus": 1}]})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(WorkloadError):
            PhaseTrace.load(tmp_path / "missing.json")

    @given(st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 1e6), st.sampled_from(
                [math.nan, math.inf, -math.inf, -1.0, 0.0])),
            st.one_of(st.floats(0.0, 1e6), st.sampled_from(
                [math.nan, math.inf, -math.inf, -1.0]))),
        min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_accepted_rate_traces_round_trip_with_finite_rates(self, steps):
        # Steps are (gap, rate) pairs; the gaps are summed into times from
        # 0, so valid traces are common and every kind of bad value shows
        # up.
        times = [0.0]
        for gap, _ in steps[1:]:
            times.append(times[-1] + gap)
        points = [(t, r) for t, (_, r) in zip(times, steps)]
        try:
            trace = RateTrace.from_points(points)
        except WorkloadError:
            return
        assert all(math.isfinite(r) for r in trace.rates_per_s)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rates.jsonl"
            trace.dump_jsonl(path)
            assert RateTrace.load_jsonl(path) == trace


class TestTiers:
    def test_tier_characters(self):
        # db is the most memory-bound tier, app the least.
        def mem_rate(tier):
            job = tier_job(tier)
            return max(p.n_mem_per_instr for p in job.phases)

        assert mem_rate(TIER_DB) > mem_rate(TIER_WEB) > mem_rate(TIER_APP)

    def test_tier_job_loops(self):
        assert tier_job("web").loop is LoopMode.LOOP

    def test_unknown_tier_rejected(self):
        with pytest.raises(WorkloadError):
            tier_job("cache")

    def test_assignment_layout(self):
        jobs = tiered_cluster_assignment(4, 2, web_nodes=1, app_nodes=1)
        assert len(jobs) == 4
        assert all(len(node_jobs) == 2 for node_jobs in jobs)
        assert jobs[0][0].name.startswith("web")
        assert jobs[1][0].name.startswith("app")
        assert jobs[2][0].name.startswith("db")
        assert jobs[3][1].name.startswith("db")

    def test_default_split_roughly_thirds(self):
        jobs = tiered_cluster_assignment(6, 1)
        names = [jobs[n][0].name.split("-")[0] for n in range(6)]
        assert names == ["web", "web", "app", "app", "db", "db"]

    def test_overfull_split_rejected(self):
        with pytest.raises(WorkloadError):
            tiered_cluster_assignment(2, 1, web_nodes=2, app_nodes=1)
