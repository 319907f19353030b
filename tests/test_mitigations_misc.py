"""Unit tests for increased refresh rate, naive throttling, and the
mechanism registry."""

import pytest

from repro.dram.spec import DDR4_2400
from repro.mitigations.base import NoMitigation
from repro.mitigations.naive_throttle import NaiveThrottling
from repro.mitigations.refresh_rate import IncreasedRefreshRate
from repro.mitigations.registry import (
    PAPER_MECHANISMS,
    available_mitigations,
    build_mitigation,
)
from repro.utils.validation import ConfigError
from tests.test_mitigations_reactive import make_context


def test_refresh_rate_multiplier_from_nrh():
    mechanism = IncreasedRefreshRate()
    mechanism.attach(make_context(nrh=32768))
    # (tREFW / tRC) / NRH_eff = 1.38M / 16K -> 85x.
    assert mechanism.rate_multiplier == 85
    assert mechanism.refresh_interval_scale() < 1.0


def test_refresh_rate_interval_floor():
    mechanism = IncreasedRefreshRate()
    mechanism.attach(make_context(nrh=1024))
    interval = DDR4_2400.tREFI * mechanism.refresh_interval_scale()
    assert interval >= DDR4_2400.tRFC * 1.25 - 1e-9


def test_refresh_rate_override():
    mechanism = IncreasedRefreshRate(rate_multiplier=2)
    mechanism.attach(make_context())
    assert mechanism.refresh_interval_scale() == pytest.approx(0.5)


def test_naive_throttle_blocks_at_threshold():
    mechanism = NaiveThrottling()
    mechanism.attach(make_context(nrh=64))
    for _ in range(32):  # NRH_eff = 32
        mechanism.on_activate(0, 0, 9, 0, 0.0)
    allowed = mechanism.act_allowed_at(0, 0, 9, 0, 100.0)
    assert allowed == mechanism._window_end  # blocked until window end
    assert mechanism.act_allowed_at(0, 0, 10, 0, 100.0) == 100.0


def test_naive_throttle_window_rollover_unblocks():
    mechanism = NaiveThrottling()
    mechanism.attach(make_context(nrh=64))
    for _ in range(32):
        mechanism.on_activate(0, 0, 9, 0, 0.0)
    mechanism.advance_to(DDR4_2400.tREFW + 1.0)
    t = DDR4_2400.tREFW + 2.0
    assert mechanism.act_allowed_at(0, 0, 9, 0, t) == t


def test_naive_static_delay_spaces_activations():
    mechanism = NaiveThrottling(static_delay=True)
    mechanism.attach(make_context(nrh=64))
    mechanism.on_activate(0, 0, 9, 0, 0.0)
    gap = DDR4_2400.tREFW / 32
    assert mechanism.act_allowed_at(0, 0, 9, 0, 1.0) == pytest.approx(gap)


def test_registry_builds_all_mechanisms():
    for name in available_mitigations():
        mechanism = build_mitigation(name)
        mechanism.attach(make_context())
        assert mechanism.act_allowed_at(0, 0, 1, 0, 0.0) >= 0.0


def test_registry_rejects_unknown():
    with pytest.raises(ConfigError):
        build_mitigation("definitely-not-a-mechanism")


def test_paper_mechanism_list():
    assert PAPER_MECHANISMS == [
        "para", "prohit", "mrloc", "cbt", "twice", "graphene", "blockhammer",
    ]


def test_blockhammer_observe_factory():
    mechanism = build_mitigation("blockhammer-observe")
    assert mechanism.observe_only


def test_no_mitigation_is_inert():
    mechanism = NoMitigation()
    mechanism.attach(make_context())
    assert mechanism.act_allowed_at(0, 0, 1, 0, 5.0) == 5.0
    assert mechanism.max_inflight(0, 0, 0) is None
    assert mechanism.drain_victim_refreshes() == []
    assert mechanism.refresh_interval_scale() == 1.0


def test_table6_matrix_blockhammer_uniquely_complete():
    """Table 6: among the paper's mechanisms only BlockHammer satisfies
    all four properties."""
    names = PAPER_MECHANISMS + ["refresh-rate", "naive-throttle"]
    full = []
    for name in names:
        m = build_mitigation(name)
        if (
            m.comprehensive_protection
            and m.commodity_compatible
            and m.scales_with_vulnerability
            and m.deterministic_protection
        ):
            full.append(name)
    assert full == ["blockhammer"]
