"""Unit tests for FR-FCFS scheduling and mitigation gating.

Every FR-FCFS case runs the same step under both implementations: the
incremental :class:`FrFcfsPolicy` (requests pushed into a
:class:`RequestQueue`, its only input) and the naive
:class:`ReferenceFrFcfsPolicy` (a plain list).
"""

import pytest

from repro.dram.address import DecodedAddress
from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.mem.queues import RequestQueue
from repro.mem.request import Request, RequestKind
from repro.mem.scheduler import FcfsPolicy, FrFcfsPolicy, ReferenceFrFcfsPolicy
from repro.mitigations.base import MitigationMechanism, NoMitigation

NO_BLOCK = frozenset()


def make_request(bank=0, row=0, write=False, thread=0):
    kind = RequestKind.WRITE if write else RequestKind.READ
    return Request(thread, kind, DecodedAddress(0, bank, row, 0), arrival=0.0)


class BlockRow(MitigationMechanism):
    """Test double: blocks ACTs to one row until a fixed time."""

    def __init__(self, row, until):
        super().__init__()
        self.row = row
        self.until = until

    def act_allowed_at(self, rank, bank, row, thread, now):
        if row == self.row:
            return max(now, self.until)
        return now


@pytest.fixture
def device(small_spec):
    return DramDevice(small_spec)


def frfcfs_select(requests, device, mitigation, now, blocked_ranks=NO_BLOCK):
    """One step under each FR-FCFS implementation, keyed by policy name."""
    queue = RequestQueue()
    for request in requests:
        queue.push(request)
    fast = FrFcfsPolicy().select(queue, device, mitigation, now, blocked_ranks)
    reference = ReferenceFrFcfsPolicy().select(
        list(requests), device, mitigation, now, blocked_ranks
    )
    return {"fr-fcfs": fast, "reference": reference}


def test_closed_bank_gets_act(device):
    for name, sel in frfcfs_select(
        [make_request(row=5)], device, NoMitigation(), 0.0
    ).items():
        assert sel.command.kind is CommandKind.ACT, name
        assert sel.command.row == 5, name


def test_row_hit_prioritized_over_older_conflict(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    now = small_spec.tRCD
    older_conflict = make_request(row=9)
    younger_hit = make_request(row=5)
    for name, sel in frfcfs_select(
        [older_conflict, younger_hit], device, NoMitigation(), now
    ).items():
        assert sel.command.kind is CommandKind.RD, name
        assert sel.request is younger_hit, name


def test_conflict_precharges_when_no_hits(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    now = small_spec.tRAS + 1.0
    for name, sel in frfcfs_select(
        [make_request(row=9)], device, NoMitigation(), now
    ).items():
        assert sel.command.kind is CommandKind.PRE, name


def test_no_precharge_under_pending_hit(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    now = small_spec.tRAS + 1.0
    conflict = make_request(row=9)
    # A pending hit whose column timing is not yet ready still protects
    # the open row from being precharged.
    hit = make_request(row=5)
    device.bank(0, 0).next_rd = now + 100.0  # force the hit not-ready
    for name, sel in frfcfs_select(
        [conflict, hit], device, NoMitigation(), now
    ).items():
        assert sel.command is None, name
        assert sel.next_ready == pytest.approx(now + 100.0), name


def test_unsafe_act_skipped_younger_safe_proceeds(device):
    blocked = make_request(row=7)
    safe = make_request(row=8)
    mitigation = BlockRow(row=7, until=500.0)
    for name, sel in frfcfs_select([blocked, safe], device, mitigation, 0.0).items():
        assert sel.command.kind is CommandKind.ACT, name
        assert sel.command.row == 8, name


def test_all_unsafe_reports_wake_time(device):
    blocked = make_request(row=7)
    mitigation = BlockRow(row=7, until=500.0)
    for name, sel in frfcfs_select([blocked], device, mitigation, 0.0).items():
        assert sel.command is None, name
        assert sel.next_ready == pytest.approx(500.0), name


def test_blocked_rank_accepts_no_row_commands(device):
    for name, sel in frfcfs_select(
        [make_request(row=5)], device, NoMitigation(), 0.0, frozenset({0})
    ).items():
        assert sel.command is None, name


def test_blocked_rank_still_serves_column_hits(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    for name, sel in frfcfs_select(
        [make_request(row=5)], device, NoMitigation(), small_spec.tRCD, frozenset({0})
    ).items():
        assert sel.command.kind is CommandKind.RD, name


def test_one_row_command_per_bank_per_step(device):
    a = make_request(bank=0, row=1)
    b = make_request(bank=0, row=2)
    c = make_request(bank=1, row=3)
    for name, sel in frfcfs_select([a, b, c], device, NoMitigation(), 0.0).items():
        # Oldest per bank wins: request a (bank 0).
        assert sel.request is a, name


def test_fcfs_considers_only_head(device):
    policy = FcfsPolicy()
    head_blocked = make_request(row=7)
    younger = make_request(row=8)
    mitigation = BlockRow(row=7, until=500.0)
    sel = policy.select([head_blocked, younger], device, mitigation, 0.0, NO_BLOCK)
    # Strict FCFS: does NOT bypass the blocked head.
    assert sel.command is None


def test_write_hit_selected(device, small_spec):
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    for name, sel in frfcfs_select(
        [make_request(row=5, write=True)], device, NoMitigation(), small_spec.tRCD
    ).items():
        assert sel.command.kind is CommandKind.WR, name
