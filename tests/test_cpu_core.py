"""Unit tests for the bounded-MLP core model."""

import pytest

from repro.cpu.cache import SetAssocCache
from repro.cpu.core import Core, CoreParams
from repro.cpu.trace import ListTrace, TraceRecord
from repro.dram.address import AddressMapping, MappingScheme
from repro.dram.device import DramDevice
from repro.mem.controller import MemoryController


class FakeController:
    """Accepts everything; lets tests complete requests manually."""

    def __init__(self, accept=True):
        self.accept = accept
        self.requests = []

    def enqueue(self, request, now):
        if not self.accept:
            return False
        self.requests.append(request)
        return True


def make_core(records, controller=None, params=None, spec=None, llc=None):
    from repro.dram.spec import DDR4_2400

    spec = spec or DDR4_2400
    mapping = AddressMapping(spec, MappingScheme.MOP)
    controller = controller or FakeController()
    core = Core(0, ListTrace(records), controller, mapping, params, llc)
    return core, controller


class RefusingController(FakeController):
    """Refuses the first ``refusals`` enqueues, then accepts."""

    def __init__(self, refusals):
        super().__init__()
        self.refusals = refusals

    def enqueue(self, request, now):
        if self.refusals:
            self.refusals -= 1
            return False
        return super().enqueue(request, now)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: without an LLC, a write refused twice is stashed "
    "as both _pending and _pending_writeback and enqueued twice",
)
def test_write_refused_twice_is_accepted_once():
    params = CoreParams(retry_delay_ns=10.0, retry_backoff_max_ns=80.0)
    records = [TraceRecord(gap=0, address=0, is_write=True)]
    core, controller = make_core(records, RefusingController(2), params)
    core.instructions_target = 1
    assert core.wake(0.0) == pytest.approx(10.0)
    assert core.wake(10.0) == pytest.approx(30.0)
    core.wake(30.0)
    assert len(controller.requests) == 1


def test_compute_gap_paces_injection():
    params = CoreParams(freq_ghz=1.0, issue_width=1)  # 1 ns per instruction
    records = [TraceRecord(gap=100, address=0)]
    core, controller = make_core(records, params=params)
    core.instructions_target = 101
    wake = core.wake(0.0)
    # The access cannot issue until its 100 instructions execute.
    assert wake == pytest.approx(100.0)
    assert not controller.requests
    core.wake(100.0)
    assert len(controller.requests) == 1


def test_mlp_limit_blocks_reads():
    params = CoreParams(max_outstanding=2)
    records = [TraceRecord(gap=0, address=i * 64) for i in range(10)]
    core, controller = make_core(records, params=params)
    core.instructions_target = 10
    wake = core.wake(0.0)
    assert wake is None  # blocked on MLP
    assert len(controller.requests) == 2
    core.on_complete(controller.requests[0], 50.0)
    core.wake(50.0)
    assert len(controller.requests) == 3


def test_rejection_backoff_grows():
    params = CoreParams(retry_delay_ns=10.0, retry_backoff_max_ns=80.0)
    records = [TraceRecord(gap=0, address=0)]
    core, controller = make_core(records, FakeController(accept=False), params)
    core.instructions_target = 100
    assert core.wake(0.0) == pytest.approx(10.0)
    assert core.wake(10.0) == pytest.approx(10.0 + 20.0)
    assert core.wake(30.0) == pytest.approx(30.0 + 40.0)


def test_done_requires_outstanding_drain():
    records = [TraceRecord(gap=0, address=0)]
    core, controller = make_core(records)
    core.instructions_target = 1
    core.wake(0.0)
    assert not core.done  # read still outstanding
    core.on_complete(controller.requests[0], 30.0)
    assert core.done
    assert core.finish_time == pytest.approx(30.0)


def test_writes_do_not_occupy_mlp_slots():
    params = CoreParams(max_outstanding=1)
    records = [TraceRecord(gap=0, address=i * 64, is_write=True) for i in range(5)]
    core, controller = make_core(records, params=params)
    core.instructions_target = 5
    core.wake(0.0)
    assert len(controller.requests) == 5
    assert core.done


def test_ipc_measures_span():
    params = CoreParams(freq_ghz=1.0, issue_width=1)
    records = [TraceRecord(gap=9, address=0)]
    core, controller = make_core(records, params=params)
    core.instructions_target = 10
    core.wake(0.0)
    core.wake(9.0)
    core.on_complete(controller.requests[0], 20.0)
    # 10 instructions over 20 ns at 1 GHz = 0.5 IPC.
    assert core.ipc() == pytest.approx(0.5)


def test_reset_measurement_clears_counters():
    records = [TraceRecord(gap=0, address=i * 64) for i in range(100)]
    core, controller = make_core(records)
    core.instructions_target = None
    core.wake(0.0)
    retired_before = core.instructions_retired
    assert retired_before > 0
    core.reset_measurement(100.0, 5)
    assert core.instructions_retired == 0
    assert core.instructions_target == 5
    assert core.measure_start == 100.0


def test_llc_filters_hits():
    llc = SetAssocCache(size_bytes=1024, ways=2, line_bytes=64)
    records = [TraceRecord(gap=0, address=0), TraceRecord(gap=0, address=0)]
    core, controller = make_core(records, llc=llc)
    core.instructions_target = 2
    core.wake(0.0)
    # Second access hits in the LLC: only one memory request.
    assert len(controller.requests) == 1


def test_finite_trace_ends_run():
    records = [TraceRecord(gap=0, address=0)]
    core, controller = make_core(
        [TraceRecord(gap=0, address=0)],
    )
    core.trace = ListTrace(records, loop=False)
    core.instructions_target = 1000
    core.wake(0.0)
    core.on_complete(controller.requests[0], 10.0)
    core.wake(10.0)
    assert core.done
