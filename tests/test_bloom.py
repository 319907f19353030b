"""Unit and property tests for Bloom filters.

The no-false-negative property is load-bearing for BlockHammer's
security guarantee, so it gets hypothesis coverage.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bloom import BloomFilter, CountingBloomFilter
from repro.utils.rng import DeterministicRng


def test_bloom_insert_then_test():
    bf = BloomFilter(256, rng=DeterministicRng(1))
    bf.insert(42)
    assert bf.test(42)


def test_bloom_clear_resets():
    bf = BloomFilter(256, rng=DeterministicRng(1))
    bf.insert(42)
    bf.clear()
    # Every bit is zero after a clear, so no key (however the reseeded
    # hashes map it) can test positive.
    assert not bf.test(42)
    assert bf.fill_ratio() == 0.0
    assert bf.insertions == 0


def test_bloom_fill_ratio_counts_distinct_set_bits():
    bf = BloomFilter(256, rng=DeterministicRng(1))
    keys = range(0, 4000, 97)
    set_bits = set()
    for key in keys:
        bf.insert(key)
        set_bits.update(bf.hashes.indices(key))
    assert bf.fill_ratio() == len(set_bits) / bf.size
    assert 0.0 < bf.fill_ratio() < 1.0


@given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=60))
@settings(max_examples=50, deadline=None)
def test_bloom_no_false_negatives(keys):
    bf = BloomFilter(512, rng=DeterministicRng(7))
    for key in keys:
        bf.insert(key)
    assert all(bf.test(key) for key in keys)


def test_cbf_counts_at_least_truth():
    cbf = CountingBloomFilter(256, rng=DeterministicRng(1))
    for _ in range(10):
        cbf.insert(42)
    assert cbf.test(42) >= 10


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=1, max_value=20),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_cbf_estimate_is_upper_bound(insertions):
    """The CBF estimate can exceed but never undercount the truth."""
    cbf = CountingBloomFilter(512, rng=DeterministicRng(9))
    for key, count in insertions.items():
        for _ in range(count):
            cbf.insert(key)
    for key, count in insertions.items():
        assert cbf.test(key) >= count


def test_cbf_saturates_at_counter_max():
    cbf = CountingBloomFilter(64, counter_max=5, rng=DeterministicRng(1))
    for _ in range(50):
        cbf.insert(7)
    assert cbf.test(7) == 5


def test_cbf_insert_returns_estimate():
    cbf = CountingBloomFilter(256, rng=DeterministicRng(1))
    assert cbf.insert(3) == 1
    assert cbf.insert(3) == 2


def test_cbf_clear_zeroes_and_reseeds():
    cbf = CountingBloomFilter(256, rng=DeterministicRng(1))
    before = cbf.hashes.indices(99)
    cbf.insert(99)
    cbf.clear()
    assert cbf.test(99) == 0 or cbf.hashes.indices(99) != before
    assert cbf.insertions == 0


def test_cbf_clear_without_reseed_keeps_hashes():
    cbf = CountingBloomFilter(256, rng=DeterministicRng(1))
    before = cbf.hashes.indices(99)
    cbf.clear(reseed=False)
    assert cbf.hashes.indices(99) == before


def test_aliasing_can_overcount_but_min_bounds_it():
    # Force aliasing with a tiny filter.
    cbf = CountingBloomFilter(4, hash_count=2, rng=DeterministicRng(3))
    for key in range(20):
        cbf.insert(key)
    # Estimates may exceed per-key truth (1) but no estimate may exceed
    # the total insertion count.
    for key in range(20):
        assert 1 <= cbf.test(key) <= 20
