"""Unit tests for the DRAM device aggregate."""

import pytest

from repro.dram.commands import Command, CommandKind
from repro.dram.device import DramDevice
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.rowmap import ScrambledRowMapping
from repro.dram.spec import DDR4_2400


@pytest.fixture
def device(small_spec):
    return DramDevice(small_spec, disturbance=DisturbanceProfile(nrh=8))


def _open_row(device, rank, bank, row, now=0.0):
    device.issue(Command(CommandKind.ACT, rank, bank, row), now)


def test_command_is_an_immutable_hashable_value():
    act = Command(CommandKind.ACT, 0, 1, 2)
    assert act == Command(CommandKind.ACT, 0, 1, 2, 0)
    assert act != Command(CommandKind.ACT, 0, 1, 3)
    assert hash(act) == hash(Command(CommandKind.ACT, 0, 1, 2))
    assert len({act, Command(CommandKind.ACT, 0, 1, 2)}) == 1
    ref = Command(CommandKind.REF, 1, 0)
    assert (ref.kind, ref.rank, ref.bank) == (CommandKind.REF, 1, 0)
    assert (ref.row, ref.col) == (0, 0)
    with pytest.raises(AttributeError):
        act.row = 7
    with pytest.raises(AttributeError):
        act.kind = CommandKind.PRE


def test_act_then_read(device, small_spec):
    _open_row(device, 0, 0, 5)
    cmd = Command(CommandKind.RD, 0, 0, 5, 0)
    t = device.earliest_issue(cmd, 0.0)
    assert t == pytest.approx(small_spec.tRCD)
    device.issue(cmd, t)
    assert device.counts.rd == 1
    assert device.counts.act == 1


def test_data_bus_serializes_reads(device, small_spec):
    _open_row(device, 0, 0, 5, now=0.0)
    _open_row(device, 0, 1, 6, now=small_spec.tRRD)
    t0 = device.earliest_issue(Command(CommandKind.RD, 0, 0, 5, 0), 100.0)
    device.issue(Command(CommandKind.RD, 0, 0, 5, 0), t0)
    # The second read's data must start after the first burst completes.
    t1 = device.earliest_issue(Command(CommandKind.RD, 0, 1, 6, 0), t0)
    assert t1 + small_spec.tCL >= device.bus_free - 1e-9


def test_act_applies_disturbance_through_rowmap(small_spec):
    rowmap = ScrambledRowMapping(small_spec.rows_per_bank, seed=3)
    device = DramDevice(small_spec, rowmap, DisturbanceProfile(nrh=1000))
    device.issue(Command(CommandKind.ACT, 0, 0, 10), 0.0)
    physical = rowmap.to_physical(10)
    model = device.model(0, 0)
    for neighbor in (physical - 1, physical + 1):
        if 0 <= neighbor < small_spec.rows_per_bank:
            assert model.disturbance_of(neighbor) == 1.0


def test_bitflips_surface_from_issue(device, small_spec):
    s = small_spec
    now = 0.0
    flips = []
    for i in range(10):
        flips += device.issue(Command(CommandKind.ACT, 0, 0, 20), now)
        now += s.tRAS
        device.issue(Command(CommandKind.PRE, 0, 0, 20), now)
        now += s.tRP
    assert device.total_bitflips == 2  # rows 19 and 21 at NRH=8
    assert len(device.bitflips) == 2


def test_vref_refreshes_victim(device, small_spec):
    s = small_spec
    now = 0.0
    for _ in range(4):
        device.issue(Command(CommandKind.ACT, 0, 0, 20), now)
        now += s.tRAS
        device.issue(Command(CommandKind.PRE, 0, 0, 20), now)
        now += s.tRP
    assert device.model(0, 0).disturbance_of(21) == 4.0
    device.issue(Command(CommandKind.VREF, 0, 0, 21), now)
    assert device.model(0, 0).disturbance_of(21) == 0.0
    assert device.counts.vref == 1


def test_ref_walks_refresh_groups(device, small_spec):
    model = device.model(0, 0)
    # Disturb a row in the first refresh group.
    device.issue(Command(CommandKind.ACT, 0, 0, 1), 0.0)
    assert model.disturbance_of(0) == 1.0
    device.issue(Command(CommandKind.PRE, 0, 0, 1), small_spec.tRAS)
    device.issue(Command(CommandKind.REF, 0, 0), small_spec.tRAS + small_spec.tRP)
    assert model.disturbance_of(0) == 0.0
    assert device.counts.ref == 1


def test_active_time_integration(device, small_spec):
    s = small_spec
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    device.issue(Command(CommandKind.PRE, 0, 0, 5), s.tRAS)
    device.finalize_active_time(1000.0)
    assert device.active_time[0] == pytest.approx(s.tRAS)


def test_active_time_counts_overlapping_banks_once(device, small_spec):
    s = small_spec
    device.issue(Command(CommandKind.ACT, 0, 0, 5), 0.0)
    device.issue(Command(CommandKind.ACT, 0, 1, 6), s.tRRD)
    device.issue(Command(CommandKind.PRE, 0, 0, 5), s.tRAS)
    device.issue(Command(CommandKind.PRE, 0, 1, 6), s.tRAS + s.tRRD)
    device.finalize_active_time(1000.0)
    # Rank active from 0 to tRAS + tRRD (one interval, not two summed).
    assert device.active_time[0] == pytest.approx(s.tRAS + s.tRRD)


def test_flat_banks_lookup(device):
    assert device.flat_banks[0] is device.bank(0, 0)
    assert device.flat_banks[1] is device.bank(0, 1)
