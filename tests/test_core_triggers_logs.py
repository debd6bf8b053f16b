"""fvsst logs."""

import numpy as np
import pytest

from repro.core.logs import CounterLogEntry, FvsstLog
from repro.errors import ExperimentError
from repro.sim.counters import CounterSample
from repro.units import ghz, mhz


def sample(instr=1e6, cycles=1e6, t=0.0, interval=0.01) -> CounterSample:
    return CounterSample(time_s=t, interval_s=interval, instructions=instr,
                         cycles=cycles, n_l2=0, n_l3=0, n_mem=0,
                         l1_stall_cycles=0, halted_cycles=0)


def record(log, t, freq, eps=None, predicted_ipc=1.0, proc=0):
    """Record a one-processor scheduling pass on node 0."""
    log.record_schedule_pass(
        t, [0], [proc], [freq], [eps if eps is not None else freq], [1.3],
        [100.0], [0.0], predicted_ipcs=[predicted_ipc])


class TestFvsstLogSeries:
    def test_ipc_series(self):
        log = FvsstLog()
        for i in range(3):
            log.record_sample(CounterLogEntry(
                time_s=0.01 * (i + 1), node_id=0, proc_id=0,
                sample=sample(instr=(i + 1) * 1e5, cycles=1e6),
            ))
        t, ipc = log.ipc_series(0, 0)
        np.testing.assert_allclose(ipc, [0.1, 0.2, 0.3])
        assert t[0] == pytest.approx(0.01)

    def test_frequency_series_actual_vs_desired(self):
        log = FvsstLog()
        record(log, 0.1, mhz(750), eps=mhz(900))
        record(log, 0.2, mhz(750), eps=mhz(850))
        _, actual = log.frequency_series(0, 0)
        _, desired = log.frequency_series(0, 0, desired=True)
        np.testing.assert_allclose(actual, [mhz(750), mhz(750)])
        np.testing.assert_allclose(desired, [mhz(900), mhz(850)])

    def test_power_series_sums_processors(self):
        log = FvsstLog()
        record(log, 0.1, ghz(1.0), proc=0)
        record(log, 0.1, ghz(1.0), proc=1)
        t, p = log.power_series()
        assert list(t) == [0.1]
        assert p[0] == pytest.approx(200.0)

    def test_per_processor_filtering(self):
        log = FvsstLog()
        record(log, 0.1, ghz(1.0), proc=0)
        record(log, 0.1, mhz(650), proc=1)
        assert len(log.schedules_of(0, 0)) == 1
        assert log.schedules_of(0, 1)[0].freq_hz == mhz(650)


class TestResidency:
    def test_fractions_sum_to_one(self):
        log = FvsstLog()
        for t, f in [(0.1, mhz(650)), (0.2, mhz(650)), (0.3, ghz(1.0)),
                     (0.4, mhz(650))]:
            record(log, t, f)
        res = log.frequency_residency(0, 0)
        assert sum(res.values()) == pytest.approx(1.0)
        assert res[mhz(650)] == pytest.approx(0.75)

    def test_empty_residency_raises(self):
        with pytest.raises(ExperimentError):
            FvsstLog().frequency_residency(0, 0)


class TestPredictionScoring:
    def _log_with_pairs(self):
        log = FvsstLog()
        # Decision at t=0.1 predicting IPC 1.0; window samples measure 0.8.
        record(log, 0.1, ghz(1.0), predicted_ipc=1.0)
        log.record_sample(CounterLogEntry(
            time_s=0.15, node_id=0, proc_id=0,
            sample=sample(instr=8e5, cycles=1e6)))
        record(log, 0.2, ghz(1.0), predicted_ipc=0.5)
        log.record_sample(CounterLogEntry(
            time_s=0.25, node_id=0, proc_id=0,
            sample=sample(instr=5e5, cycles=1e6)))
        return log

    def test_pairs_align_decisions_with_following_window(self):
        pairs = self._log_with_pairs().prediction_pairs(0, 0)
        assert len(pairs) == 2
        assert pairs[0][1] == 1.0 and pairs[0][2] == pytest.approx(0.8)
        assert pairs[1][1] == 0.5 and pairs[1][2] == pytest.approx(0.5)

    def test_deviation_is_mean_absolute(self):
        log = self._log_with_pairs()
        assert log.ipc_deviation(0, 0) == pytest.approx((0.2 + 0.0) / 2)

    def test_edge_skipping(self):
        log = self._log_with_pairs()
        assert log.ipc_deviation(0, 0, skip_head=1) == pytest.approx(0.0)
        assert log.ipc_deviation(0, 0, skip_tail=1) == pytest.approx(0.2)

    def test_all_skipped_raises(self):
        with pytest.raises(ExperimentError):
            self._log_with_pairs().ipc_deviation(0, 0, skip_head=5)

    def test_window_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so plain adds measure 4 / 4; a
        # compensated sum (Python 3.12's) would measure 5 / 4.
        log = FvsstLog()
        record(log, 0.1, ghz(1.0), predicted_ipc=1.0)
        for k, instr in enumerate([1e16, 1.0, -1e16, 4.0]):
            log.record_sample(CounterLogEntry(
                time_s=0.11 + 0.01 * k, node_id=0, proc_id=0,
                sample=sample(instr=instr, cycles=1.0)))
        assert log.prediction_pairs(0, 0) == [(0.1, 1.0, 1.0)]

    def test_none_predictions_excluded(self):
        log = FvsstLog()
        record(log, 0.1, ghz(1.0), predicted_ipc=None)
        log.record_sample(CounterLogEntry(
            time_s=0.15, node_id=0, proc_id=0, sample=sample()))
        assert log.prediction_pairs(0, 0) == []
