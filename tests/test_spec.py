"""Unit tests for DRAM specs and scaling."""

import pytest

from repro.dram.spec import DDR3_1600, DDR4_2400, LPDDR4_3200, DramSpec, scaled_threshold
from repro.utils.units import MS
from repro.utils.validation import ConfigError


def test_ddr4_matches_paper_table1():
    assert DDR4_2400.tRC == 46.25
    assert DDR4_2400.tFAW == 35.0
    assert DDR4_2400.tREFW == 64 * MS
    assert DDR4_2400.banks_per_rank == 16
    assert DDR4_2400.rows_per_bank == 65536


def test_lpddr4_halves_refresh_window():
    assert LPDDR4_3200.tREFW == 32 * MS


def test_presets_are_self_consistent():
    for preset in (DDR4_2400, LPDDR4_3200, DDR3_1600):
        assert preset.tRC >= preset.tRAS
        assert preset.tREFI < preset.tREFW


def test_scaled_preserves_command_timings():
    scaled = DDR4_2400.scaled(64)
    assert scaled.tRC == DDR4_2400.tRC
    assert scaled.tFAW == DDR4_2400.tFAW
    assert scaled.tRFC == DDR4_2400.tRFC
    assert scaled.tREFI == DDR4_2400.tREFI  # refresh duty cycle preserved
    assert scaled.tREFW == DDR4_2400.tREFW / 64


def test_scaled_repartitions_refresh_groups():
    scaled = DDR4_2400.scaled(64)
    # One full array walk per scaled window.
    assert scaled.refresh_groups == round(scaled.tREFW / scaled.tREFI)


def test_scaled_rejects_factor_below_one():
    with pytest.raises(ConfigError):
        DDR4_2400.scaled(0.5)


def test_scaled_threshold_rounds_and_floors():
    assert scaled_threshold(32768, 64) == 512
    assert scaled_threshold(100, 1000) == 1  # floor of 1
    assert scaled_threshold(1000, 3) == 333


def test_derived_quantities():
    spec = DDR4_2400
    assert spec.rows_per_refresh_group == 65536 // 8192


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        DramSpec(rows_per_bank=1)
    with pytest.raises(ConfigError):
        DramSpec(tRC=10.0, tRAS=32.0)
