"""The round-robin dispatcher."""

import pytest

from repro.errors import SimulationError
from repro.sim.os_sched import Dispatcher
from repro.workloads.job import Job
from repro.workloads.phase import Phase


def job(name="j", instructions=1e6) -> Job:
    return Job(name=name,
               phases=(Phase(name="p", instructions=instructions, alpha=1.0),))


class TestQueueing:
    def test_empty_dispatcher_idles(self):
        d = Dispatcher()
        assert d.current_job() is None
        assert d.runnable == 0

    def test_fifo_initial_order(self):
        d = Dispatcher()
        a, b = job("a"), job("b")
        d.add_job(a)
        d.add_job(b)
        assert d.current_job() is a

    def test_completed_job_rejected(self):
        d = Dispatcher()
        j = job()
        j.mark_started(0.0)
        j.retire(1e6, 1.0)
        with pytest.raises(SimulationError):
            d.add_job(j)


class TestSliceLimits:
    def test_sole_job_never_preempted(self):
        d = Dispatcher(quantum_s=0.010)
        d.add_job(job())
        assert d.slice_limit_s() == float("inf")

    def test_multiprogrammed_limited_by_quantum(self):
        d = Dispatcher(quantum_s=0.010)
        d.add_job(job("a"))
        d.add_job(job("b"))
        assert d.slice_limit_s() == pytest.approx(0.010)


class TestRotation:
    def test_quantum_expiry_rotates(self):
        d = Dispatcher(quantum_s=0.010)
        a, b = job("a"), job("b")
        d.add_job(a)
        d.add_job(b)
        d.account_run(a, 0.010, 0.010)
        assert d.current_job() is b

    def test_partial_quantum_no_rotation(self):
        d = Dispatcher(quantum_s=0.010)
        a, b = job("a"), job("b")
        d.add_job(a)
        d.add_job(b)
        d.account_run(a, 0.004, 0.004)
        assert d.current_job() is a
        d.account_run(a, 0.006, 0.010)
        assert d.current_job() is b

    def test_completion_retires_job(self):
        d = Dispatcher(quantum_s=0.010)
        a, b = job("a", instructions=100), job("b")
        d.add_job(a)
        d.add_job(b)
        a.mark_started(0.0)
        a.retire(100, 0.001)          # a completes
        d.account_run(a, 0.001, 0.001)
        assert d.current_job() is b
        assert d.finished == [a]

    def test_accounting_wrong_job_rejected(self):
        d = Dispatcher()
        a, b = job("a"), job("b")
        d.add_job(a)
        d.add_job(b)
        with pytest.raises(SimulationError):
            d.account_run(b, 0.001, 0.001)

    def test_negative_time_rejected(self):
        d = Dispatcher()
        a = job("a")
        d.add_job(a)
        with pytest.raises(SimulationError):
            d.account_run(a, -0.001, 0.0)
