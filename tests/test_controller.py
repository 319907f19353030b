"""Unit tests for the memory controller."""

from collections import deque
from dataclasses import replace

import pytest

from repro.dram.address import DecodedAddress, bank_key
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.mem.controller import ControllerConfig, MemoryController
from repro.mem.request import Request, RequestKind, ServiceClass
from repro.mitigations.base import MitigationMechanism
from repro.utils.validation import ConfigError

_NEVER = 1.0e30


def make_controller(spec, mitigation=None, num_threads=2, config=None):
    device = DramDevice(spec)
    return MemoryController(
        spec, device, mitigation, config=config, num_threads=num_threads
    )


def make_request(thread=0, bank=0, row=0, col=0, write=False):
    kind = RequestKind.WRITE if write else RequestKind.READ
    return Request(thread, kind, DecodedAddress(0, bank, row, col), arrival=0.0)


def drive(controller, until_ns, start=0.0):
    """Step the controller until ``until_ns`` (or it goes fully idle)."""
    now = start
    while now < until_ns:
        wake = controller.step(now)
        if wake >= _NEVER:
            break
        now = max(wake, now + 0.01)
    return now


def test_read_completes_with_callback(small_spec):
    controller = make_controller(small_spec)
    completions = []
    controller.on_request_complete = lambda req, t: completions.append((req, t))
    request = make_request(row=3)
    assert controller.enqueue(request, 0.0)
    drive(controller, 2000.0)
    assert len(completions) == 1
    done_request, done_time = completions[0]
    assert done_request is request
    expected = small_spec.tRCD + small_spec.tCL + small_spec.tBL
    assert done_time >= expected
    assert request.service_class is ServiceClass.MISS


def test_row_hit_classification(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    first = make_request(row=3, col=0)
    second = make_request(row=3, col=1)
    controller.enqueue(first, 0.0)
    drive(controller, 500.0)  # opens row 3
    controller.enqueue(second, 500.0)
    drive(controller, 2000.0, start=500.0)
    assert first.service_class is ServiceClass.MISS
    assert second.service_class is ServiceClass.HIT
    stats = controller.thread_stats[0]
    assert stats.row_misses == 1 and stats.row_hits == 1


def test_conflict_classification(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    first = make_request(row=3)
    conflict = make_request(row=9)
    controller.enqueue(first, 0.0)
    drive(controller, 500.0)
    controller.enqueue(conflict, 500.0)
    drive(controller, 3000.0, start=500.0)
    assert conflict.service_class is ServiceClass.CONFLICT


def test_queue_capacity_backpressure(small_spec):
    controller = make_controller(
        small_spec,
        config=ControllerConfig(
            read_queue_depth=2,
            write_queue_depth=2,
            write_drain_high=2,
            write_drain_low=1,
        ),
    )
    assert controller.enqueue(make_request(row=1), 0.0)
    assert controller.enqueue(make_request(row=2), 0.0)
    rejected = make_request(row=3)
    assert not controller.enqueue(rejected, 0.0)
    assert controller.thread_stats[0].blocked_injections == 1


def test_quota_enforcement(small_spec):
    class OneInflight(MitigationMechanism):
        def max_inflight(self, thread, rank, bank):
            return 1 if thread == 0 else None

    controller = make_controller(small_spec, OneInflight())
    assert controller.enqueue(make_request(thread=0, row=1), 0.0)
    assert not controller.enqueue(make_request(thread=0, row=2), 0.0)
    # Other threads and other banks are unaffected.
    assert controller.enqueue(make_request(thread=1, row=2), 0.0)
    assert controller.enqueue(make_request(thread=0, bank=1, row=2), 0.0)


def test_total_quota_enforcement(small_spec):
    class TotalTwo(MitigationMechanism):
        def max_inflight_total(self, thread):
            return 2 if thread == 0 else None

    controller = make_controller(small_spec, TotalTwo())
    assert controller.enqueue(make_request(thread=0, bank=0, row=1), 0.0)
    assert controller.enqueue(make_request(thread=0, bank=1, row=1), 0.0)
    assert not controller.enqueue(make_request(thread=0, bank=2, row=1), 0.0)
    assert controller.enqueue(make_request(thread=1, bank=2, row=1), 0.0)


def test_refresh_issued_when_due(small_spec):
    controller = make_controller(small_spec)
    drive(controller, small_spec.tREFI * 2.5)
    assert sum(controller.refresh.refreshes_issued) >= 2


def test_refresh_drains_open_banks(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    controller.enqueue(make_request(row=3), 0.0)
    drive(controller, small_spec.tREFI * 1.5)
    assert controller.device.counts.ref >= 1
    # The bank was precharged for the REF.
    assert controller.device.counts.pre >= 1


def test_victim_refresh_executes(small_spec):
    class OneVref(MitigationMechanism):
        def __init__(self):
            super().__init__()
            self.queued = False

        def on_activate(self, rank, bank, row, thread, now):
            if not self.queued:
                self.queue_victim_refresh(rank, bank, row + 1)
                self.queued = True

    mechanism = OneVref()
    controller = make_controller(small_spec, mechanism)
    controller.on_request_complete = lambda req, t: None
    controller.enqueue(make_request(row=3), 0.0)
    drive(controller, 5000.0)
    assert controller.vref_count == 1
    assert controller.device.counts.vref == 1


def test_write_drain_hysteresis(small_spec):
    config = ControllerConfig(
        read_queue_depth=64, write_queue_depth=64, write_drain_high=4, write_drain_low=1
    )
    controller = make_controller(small_spec, config=config)
    controller.on_request_complete = lambda req, t: None
    for i in range(4):
        controller.enqueue(make_request(row=i, bank=i % 2, write=True), 0.0)
    controller.enqueue(make_request(row=9), 0.0)
    drive(controller, 5000.0)
    assert controller.device.counts.wr == 4
    assert controller.device.counts.rd == 1


def test_invalid_controller_config():
    with pytest.raises(ConfigError):
        ControllerConfig(write_drain_high=10, write_drain_low=20)


def test_thread_stats_avg_latency(small_spec):
    controller = make_controller(small_spec)
    controller.on_request_complete = lambda req, t: None
    controller.enqueue(make_request(row=1), 0.0)
    drive(controller, 2000.0)
    stats = controller.thread_stats[0]
    assert stats.read_latency_count == 1
    assert stats.avg_read_latency > small_spec.tCL
    assert stats.row_hit_rate == 0.0


def _vref_scan_fixture(small_spec):
    """A three-rank controller with one pending victim refresh on each of
    four banks, each bound by a different gate:

    * rank 2, bank 0: untouched (ready at once), on the rank the scan is
      told is refresh-draining; queued first, so a scan that ignored the
      block would always pick it;
    * rank 0, bank 0: row open, bound by its PRE gate (ACT + tRAS);
    * rank 0, bank 1: precharged within tRC, bound by its bank ACT gate;
    * rank 1, bank 0: untouched, bound by rank 1's tFAW window, which
      four ACT-class commands to rank 1's bank 3 opened.

    Commands are committed straight to the device to build the state;
    legality of that set-up is not the point.
    """
    spec = replace(small_spec, ranks=3)
    controller = make_controller(spec)
    device = controller.device
    device.command_log = []
    device.issue(Command(CommandKind.ACT, 0, 1, 7), 0.0)
    device.issue(Command(CommandKind.ACT, 0, 0, 5), spec.tRRD)
    device.issue(Command(CommandKind.PRE, 0, 1, 7), spec.tRAS)
    for i in range(4):
        device.issue(Command(CommandKind.VREF, 1, 3, 9), i * spec.tRRD)
    device.command_log.clear()
    for rank, bank in ((2, 0), (0, 0), (0, 1), (1, 0)):
        controller._vrefs[bank_key(rank, bank)] = deque((100 + rank * 10 + bank,))
        controller._pending_vref_count += 1
    return controller


def test_vref_scan_gates_match_device_earliest_issue(small_spec):
    """``_vref_step`` reads the PRE, bank and rank gates directly; its
    ``(issued, wake)`` must equal what ``DramDevice.earliest_issue``
    derives for the same commands, and the command it issues must be the
    first ready one in queue order."""
    blocked = frozenset({2})
    device = _vref_scan_fixture(small_spec).device
    open_bank = device.bank(0, 0)
    tRC_bank = device.bank(0, 1)
    rank0, rank1 = device.ranks[0], device.ranks[1]
    pre_gate = open_bank.next_pre
    bank_gate = tRC_bank.next_act
    rank_gate = rank1._act_ready
    # Each bank is bound by the gate it was built for.
    assert open_bank.open_row is not None
    assert tRC_bank.open_row is None and bank_gate > rank0._act_ready
    assert device.bank(1, 0).next_act < rank_gate
    assert len({pre_gate, bank_gate, rank_gate}) == 3

    def expected_commands(controller):
        cmds = []
        for rank, bank in ((0, 0), (0, 1), (1, 0)):
            b = controller.device.bank(rank, bank)
            queue = controller._vrefs[bank_key(rank, bank)]
            if b.open_row is not None:
                cmds.append(Command(CommandKind.PRE, rank, bank, b.open_row))
            else:
                cmds.append(Command(CommandKind.VREF, rank, bank, queue[0]))
        return cmds

    gates = sorted((pre_gate, bank_gate, rank_gate))
    nows = [0.0] + [g + d for g in gates for d in (-0.5, 0.0, 0.5)]
    issued_kinds = set()
    for now in nows:
        controller = _vref_scan_fixture(small_spec)
        cmds = expected_commands(controller)
        times = [controller.device.earliest_issue(cmd, now) for cmd in cmds]
        ready = [cmd for cmd, t in zip(cmds, times) if t <= now]
        expected = (True, now) if ready else (False, min(times))
        assert controller._vref_step(now, blocked) == expected, now
        log = controller.device.command_log
        if ready:
            first = ready[0]
            assert log == [
                (now, first.kind.name, first.rank, first.bank, first.row, first.col)
            ]
            issued_kinds.add(first.kind)
        else:
            assert log == []
    assert issued_kinds == {CommandKind.PRE, CommandKind.VREF}

    # Unblocked, the untouched rank-2 bank (queued first) issues at once.
    controller = _vref_scan_fixture(small_spec)
    assert controller._vref_step(0.0, frozenset()) == (True, 0.0)
    assert controller.device.command_log == [(0.0, "VREF", 2, 0, 120, 0)]
