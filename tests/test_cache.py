"""Unit tests for the set-associative LLC model."""

import pytest

from repro.cpu.cache import SetAssocCache
from repro.utils.validation import ConfigError


def make_cache(sets=4, ways=2, line=64):
    return SetAssocCache(size_bytes=sets * ways * line, ways=ways, line_bytes=line)


def test_miss_then_hit():
    cache = make_cache()
    assert not cache.access(0, False).hit
    assert cache.access(0, False).hit
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_same_line_different_bytes_hit():
    cache = make_cache()
    cache.access(0, False)
    assert cache.access(63, False).hit
    assert not cache.access(64, False).hit


def test_lru_eviction():
    cache = make_cache(sets=1, ways=2)
    cache.access(0, False)  # A
    cache.access(64, False)  # B
    cache.access(0, False)  # touch A (B becomes LRU)
    cache.access(128, False)  # evicts B
    assert cache.contains(0)
    assert not cache.contains(64)
    assert cache.contains(128)


def test_dirty_eviction_produces_writeback():
    cache = make_cache(sets=1, ways=1)
    cache.access(0, True)  # dirty
    result = cache.access(64, False)
    assert result.writeback_address == 0
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = make_cache(sets=1, ways=1)
    cache.access(0, False)
    result = cache.access(64, False)
    assert result.writeback_address is None


def test_write_hit_marks_dirty():
    cache = make_cache(sets=1, ways=1)
    cache.access(0, False)
    cache.access(0, True)  # dirty via hit
    result = cache.access(64, False)
    assert result.writeback_address == 0


def test_sets_isolate_addresses():
    cache = make_cache(sets=2, ways=1)
    cache.access(0, False)  # set 0
    cache.access(64, False)  # set 1
    assert cache.contains(0) and cache.contains(64)


def test_invalid_geometry():
    with pytest.raises(ConfigError):
        SetAssocCache(size_bytes=1000, ways=3, line_bytes=64)
