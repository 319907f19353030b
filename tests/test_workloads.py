"""Unit tests for workload profiles, the generator, attacks, and mixes."""

import pytest

from repro.dram.address import AddressMapping, MappingScheme
from repro.utils.rng import DeterministicRng
from repro.utils.validation import ConfigError
from repro.workloads.attacks import (
    build_attack_trace,
    double_sided_attack,
    many_sided_attack,
    single_sided_attack,
)
from repro.workloads.attacks import DEFAULT_VICTIM_ROW
from repro.workloads import generator
from repro.workloads.generator import ProfileTrace, build_benign_trace
from repro.workloads.mixes import (
    ATTACKER_THREAD,
    attack_mixes,
    benign_mixes,
    mix_row_offset,
    mix_row_stride,
)
from repro.workloads.profiles import (
    TABLE8_PROFILES,
    Category,
    profile_by_name,
    profiles_in_category,
)


# ----------------------------------------------------------------------
# Profiles (Table 8).
# ----------------------------------------------------------------------
def test_thirty_applications():
    assert len(TABLE8_PROFILES) == 30


def test_category_counts_match_table8():
    assert len(profiles_in_category(Category.L)) == 12
    assert len(profiles_in_category(Category.M)) == 9
    assert len(profiles_in_category(Category.H)) == 9


def test_published_values_preserved():
    mcf = profile_by_name("429.mcf")
    assert mcf.table_mpki == 201.7
    assert mcf.rbcpki == 62.3
    libquantum = profile_by_name("462.libquantum")
    assert libquantum.table_mpki == 26.9


def test_category_boundaries():
    for profile in TABLE8_PROFILES:
        if profile.category is Category.L:
            assert profile.rbcpki < 1.0
        elif profile.category is Category.M:
            assert 1.0 <= profile.rbcpki <= 5.0
        else:
            assert profile.rbcpki > 5.0


def test_conflict_fraction_bounded():
    for profile in TABLE8_PROFILES:
        assert 0.0 <= profile.conflict_fraction <= 1.0


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        profile_by_name("430.doom")


# ----------------------------------------------------------------------
# Generator.
# ----------------------------------------------------------------------
def test_generator_is_deterministic(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    profile = profile_by_name("429.mcf")
    a = build_benign_trace(profile, small_spec, mapping, seed=5)
    b = build_benign_trace(profile, small_spec, mapping, seed=5)
    for _ in range(100):
        ra, rb = a.next_record(), b.next_record()
        assert (ra.gap, ra.address, ra.is_write) == (rb.gap, rb.address, rb.is_write)


def test_generator_gap_tracks_mpki(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    profile = profile_by_name("429.mcf")  # MPKI ~ 202 -> mean gap ~ 4
    trace = build_benign_trace(profile, small_spec, mapping, seed=5)
    gaps = [trace.next_record().gap for _ in range(3000)]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(profile.gap_mean, rel=0.25)


def test_generator_row_offset_separates_threads(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    profile = profile_by_name("444.namd")
    a = build_benign_trace(profile, small_spec, mapping, seed=5, row_offset=0)
    b = build_benign_trace(profile, small_spec, mapping, seed=5, row_offset=1024)
    rows_a = {mapping.decode(a.next_record().address).row for _ in range(200)}
    rows_b = {mapping.decode(b.next_record().address).row for _ in range(200)}
    assert not (rows_a & rows_b)


def test_generator_addresses_decode_into_working_set(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    profile = profile_by_name("403.gcc")
    trace = build_benign_trace(profile, small_spec, mapping, seed=5)
    for _ in range(300):
        decoded = mapping.decode(trace.next_record().address)
        assert decoded.row < profile.working_set_rows
        assert decoded.bank < min(profile.banks_used, small_spec.banks_per_rank)


def test_stream_cache_is_bounded_and_replays_after_reset(small_spec):
    """Many distinct trace keys in one process (a long-lived pool
    worker) never grow the stream cache past its limit, and a trace
    rebuilt after the reset regenerates the same records."""
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    profile = profile_by_name("429.mcf")

    def records(trace, n):
        return [
            (r.gap, r.address, r.is_write)
            for r in (trace.next_record() for _ in range(n))
        ]

    first = build_benign_trace(profile, small_spec, mapping, seed=5)
    head = records(first, 50)
    limit = generator._STREAM_CACHE_LIMIT
    for seed in range(1000, 1000 + limit + 1):
        build_benign_trace(profile, small_spec, mapping, seed=seed)
        assert len(generator._STREAM_CACHE) <= limit
    rebuilt = build_benign_trace(profile, small_spec, mapping, seed=5)
    assert rebuilt._stream is not first._stream  # regenerated, not cached
    assert records(rebuilt, 50) == head
    # The live trace keeps its own stream across the reset.
    assert records(first, 50) == records(rebuilt, 50)


def test_streaming_profile_walks_rows(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    profile = profile_by_name("movnti.colmaj")
    trace = ProfileTrace(profile, small_spec, mapping, DeterministicRng(3))
    rows = [mapping.decode(trace.next_record().address).row for _ in range(50)]
    assert len(set(rows)) > 25  # near-every access opens a new row


# ----------------------------------------------------------------------
# Attacks.
# ----------------------------------------------------------------------
def test_double_sided_alternates_aggressors(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = double_sided_attack(small_spec, mapping, victim_row=100, banks=[0])
    rows = [mapping.decode(trace.next_record().address).row for _ in range(6)]
    assert rows == [99, 101, 99, 101, 99, 101]


def test_double_sided_rotates_banks(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = double_sided_attack(small_spec, mapping, victim_row=100)
    banks = [mapping.decode(trace.next_record().address).bank for _ in range(small_spec.banks_per_rank)]
    assert banks == list(range(small_spec.banks_per_rank))


def test_attack_records_are_tight_reads(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = double_sided_attack(small_spec, mapping, victim_row=100)
    record = trace.next_record()
    assert record.gap == 0
    assert not record.is_write


def test_single_sided_uses_far_dummy(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = single_sided_attack(small_spec, mapping, aggressor_row=10, banks=[0])
    rows = {mapping.decode(trace.next_record().address).row for _ in range(4)}
    assert 10 in rows
    assert len(rows) == 2  # aggressor + dummy


def test_many_sided_spacing(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    trace = many_sided_attack(small_spec, mapping, first_row=50, sides=3, banks=[0])
    rows = sorted({mapping.decode(trace.next_record().address).row for _ in range(9)})
    assert rows == [50, 52, 54]


def test_build_attack_trace_by_name(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    for kind in ("double", "single", "many"):
        trace = build_attack_trace(kind, small_spec, mapping)
        assert trace.next_record().gap == 0
    with pytest.raises(ConfigError):
        build_attack_trace("sideways", small_spec, mapping)


def test_attack_validation(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    with pytest.raises(ConfigError):
        double_sided_attack(small_spec, mapping, victim_row=0)  # edge row


# ----------------------------------------------------------------------
# Mixes.
# ----------------------------------------------------------------------
def test_mix_counts_and_shapes():
    mixes = benign_mixes(5)
    assert len(mixes) == 5
    assert all(len(m.app_names) == 8 and not m.has_attack for m in mixes)
    amixes = attack_mixes(5)
    assert all(m.app_names[ATTACKER_THREAD] == "attack" for m in amixes)
    assert all(len(m.app_names) == 8 for m in amixes)


def test_mixes_are_deterministic():
    assert benign_mixes(3) == benign_mixes(3)
    assert attack_mixes(3) == attack_mixes(3)


def test_mix_prefix_stability():
    # Requesting more mixes must not change earlier ones.
    assert benign_mixes(2) == benign_mixes(10)[:2]


def test_mix_builds_traces(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    mix = attack_mixes(1)[0]
    traces = mix.build_traces(small_spec, mapping)
    assert len(traces) == 8
    assert mix.attacker_threads == {0}
    for trace in traces:
        record = trace.next_record()
        assert record.address >= 0


# ----------------------------------------------------------------------
# Row-stripe layout (the (slot * 8192) % rows_per_bank wrap bugfix).
# ----------------------------------------------------------------------
def test_row_offsets_match_historical_stride_on_default_geometry(spec):
    # 64K rows / 8 threads -> the historical 8192 stride, so golden
    # fixtures captured under the old formula are unchanged.
    assert mix_row_stride(spec) == 8192
    for slot in range(8):
        assert mix_row_offset(spec, slot) == slot * 8192


def test_row_offsets_distinct_on_small_geometry(small_spec):
    # The old (slot * 8192) % rows_per_bank collapsed every slot onto
    # offset 0 here (8192 % 4096 == 0), silently aliasing all eight
    # working sets (and the attack's aggressor/victim rows).
    assert small_spec.rows_per_bank == 4096
    offsets = [mix_row_offset(small_spec, slot) for slot in range(8)]
    assert len(set(offsets)) == 8
    assert offsets == [slot * 512 for slot in range(8)]


def test_row_stride_rejects_more_threads_than_rows(tiny_spec):
    with pytest.raises(ConfigError):
        mix_row_stride(tiny_spec, threads=tiny_spec.rows_per_bank + 1)


def test_mix_threads_get_disjoint_stripes_on_small_geometry(small_spec):
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    mix = benign_mixes(1)[0]
    traces = mix.build_traces(small_spec, mapping)
    stride = mix_row_stride(small_spec, len(traces))
    for slot, trace in enumerate(traces):
        rows = {mapping.decode(trace.next_record().address).row for _ in range(50)}
        profile = profile_by_name(mix.app_names[slot])
        if profile.working_set_rows <= stride:
            # Small working sets stay strictly inside their own stripe.
            assert all(slot * stride <= r < (slot + 1) * stride for r in rows)


# ----------------------------------------------------------------------
# Per-mix attack seeding (the byte-identical-attack-trace bugfix).
# ----------------------------------------------------------------------
def test_attack_mix_zero_keeps_canonical_victim(spec):
    # The fixed-seed fallback: mix 0 carries attack_seed=None and hosts
    # the canonical fixed attack the golden fixtures pin.
    mix = attack_mixes(1)[0]
    assert mix.attack_seed is None
    mapping = AddressMapping(spec, MappingScheme.MOP)
    trace = mix.build_traces(spec, mapping)[ATTACKER_THREAD]
    rows = {mapping.decode(trace.next_record().address).row for _ in range(64)}
    assert rows == {DEFAULT_VICTIM_ROW - 1, DEFAULT_VICTIM_ROW + 1}


def test_attack_mixes_host_distinct_attack_traces(spec):
    # Previously every attack mix hosted the byte-identical attack
    # trace; seeded mixes now hammer per-mix victim rows.
    mapping = AddressMapping(spec, MappingScheme.MOP)
    victims = []
    for mix in attack_mixes(4):
        trace = mix.build_traces(spec, mapping)[ATTACKER_THREAD]
        rows = sorted(
            {mapping.decode(trace.next_record().address).row for _ in range(64)}
        )
        assert len(rows) == 2 and rows[1] - rows[0] == 2  # victim +/- 1
        victims.append(rows[0] + 1)
    assert victims[0] == DEFAULT_VICTIM_ROW
    assert len(set(victims)) == 4
    # Seeded victims stay inside the attacker's row stripe, away from
    # every benign thread's working set.
    stride = mix_row_stride(spec, 8)
    for victim in victims[1:]:
        assert ATTACKER_THREAD * stride < victim < (ATTACKER_THREAD + 1) * stride - 1


def test_attack_seeding_deterministic(spec):
    mapping = AddressMapping(spec, MappingScheme.MOP)
    mix_a = attack_mixes(3)[2]
    mix_b = attack_mixes(3)[2]
    ta = mix_a.build_traces(spec, mapping)[ATTACKER_THREAD]
    tb = mix_b.build_traces(spec, mapping)[ATTACKER_THREAD]
    for _ in range(32):
        assert ta.next_record().address == tb.next_record().address


# ----------------------------------------------------------------------
# Channel-affine (pinned) mixes.
# ----------------------------------------------------------------------
def test_pinned_mix_confines_every_slot_to_its_channel(small_spec):
    from dataclasses import replace as _replace

    spec2 = _replace(small_spec, channels=2)
    mapping = AddressMapping(spec2, MappingScheme.MOP)
    mix = attack_mixes(1)[0].pinned()
    assert mix.name == "attack-000-pinned"
    traces = mix.build_traces(spec2, mapping)
    for slot, trace in enumerate(traces):
        channels = {
            mapping.decode(trace.next_record().address).channel for _ in range(100)
        }
        assert channels == {slot % 2}


def test_pinned_mix_degenerates_on_single_channel(small_spec):
    """On a one-channel spec the pinned variant replays the interleaved
    trace record for record."""
    mapping = AddressMapping(small_spec, MappingScheme.MOP)
    plain = attack_mixes(1)[0].build_traces(small_spec, mapping)
    pinned = attack_mixes(1)[0].pinned().build_traces(small_spec, mapping)
    for a, b in zip(plain, pinned):
        for _ in range(50):
            ra, rb = a.next_record(), b.next_record()
            assert (ra.gap, ra.address, ra.is_write) == (rb.gap, rb.address, rb.is_write)


# ----------------------------------------------------------------------
# Channel-affine profiles.
# ----------------------------------------------------------------------
def test_pinned_profile_emits_only_its_channel(small_spec):
    from dataclasses import replace as _replace

    spec2 = _replace(small_spec, channels=2)
    mapping = AddressMapping(spec2, MappingScheme.MOP)
    profile = profile_by_name("429.mcf").pinned_to(1)
    assert profile.channel_affinity == 1
    trace = ProfileTrace(profile, spec2, mapping, DeterministicRng(7))
    channels = {mapping.decode(trace.next_record().address).channel for _ in range(200)}
    assert channels == {1}
    # Affinity wraps modulo the channel count.
    wrapped = ProfileTrace(
        profile_by_name("429.mcf").pinned_to(3), spec2, mapping, DeterministicRng(7)
    )
    channels = {mapping.decode(wrapped.next_record().address).channel for _ in range(50)}
    assert channels == {1}


def test_unpinned_profile_still_spreads_rows(small_spec):
    from dataclasses import replace as _replace

    spec2 = _replace(small_spec, channels=2)
    mapping = AddressMapping(spec2, MappingScheme.MOP)
    trace = ProfileTrace(profile_by_name("429.mcf"), spec2, mapping, DeterministicRng(7))
    channels = {mapping.decode(trace.next_record().address).channel for _ in range(300)}
    assert channels == {0, 1}


def test_channel_affine_run_skews_per_channel_rows():
    """End to end: a pinned working set drives all demand traffic to one
    channel shard, visible in the per-channel ChannelResult rows."""
    from repro.harness.runner import HarnessConfig, Runner
    from repro.workloads.generator import build_benign_trace as _build

    hcfg = HarnessConfig(
        scale=128.0, instructions_per_thread=2_000, warmup_ns=1_000.0, num_channels=2
    )
    profile = profile_by_name("429.mcf").pinned_to(0)
    trace = _build(profile, hcfg.spec(), hcfg.mapping(), seed=hcfg.seed)
    outcome = Runner(hcfg).run_traces([trace], "none")
    rows = outcome.result.channels
    assert len(rows) == 2
    pinned, other = rows[0], rows[1]
    # All reads/writes/activations land on the pinned channel; the
    # other shard sees only background refresh.
    assert pinned.counts.rd > 0
    assert pinned.counts.act > 0
    assert other.counts.rd == 0
    assert other.counts.wr == 0
    assert other.counts.act == 0
    # Per-thread per-channel stats agree with the device-level skew.
    per_channel = outcome.result.threads[0].mem_per_channel
    assert per_channel[0].accesses > 0
    assert per_channel[1].accesses == 0
