"""Bloom filter and counting Bloom filter (Section 3.1.1).

A Bloom filter answers set-membership with possible false positives but
*no false negatives*; a counting Bloom filter (CBF) replaces the bit
array with counters, so testing a key returns an upper bound on its true
insertion count.  Both properties are load-bearing for BlockHammer's
security argument: a row's CBF estimate can only over-state its
activation count, so no aggressor can evade blacklisting.
"""

from __future__ import annotations

from repro.core.hashing import HashFamily, MixHashFamily
from repro.utils.rng import DeterministicRng
from repro.utils.validation import require


class BloomFilter:
    """Plain bit-array Bloom filter."""

    def __init__(
        self, size: int, hash_count: int = 4, rng: DeterministicRng | None = None,
        hashes: HashFamily | None = None,
    ) -> None:
        require(size >= 2, "filter size must be >= 2")
        self.size = size
        self.hashes = hashes or MixHashFamily(
            hash_count, size, rng or DeterministicRng(0)
        )
        self._bits = bytearray(size)
        self.insertions = 0

    def insert(self, key: int) -> None:
        """Add ``key`` to the set."""
        for index in self.hashes.indices(key):
            self._bits[index] = 1
        self.insertions += 1

    def test(self, key: int) -> bool:
        """Membership test; may return a false positive, never a false
        negative for inserted keys since the last clear."""
        return all(self._bits[index] for index in self.hashes.indices(key))

    def clear(self, reseed: bool = True) -> None:
        """Zero the array and (by default) re-randomize the hash seeds."""
        self._bits[:] = bytes(self.size)
        self.insertions = 0
        if reseed:
            self.hashes.reseed()

    def fill_ratio(self) -> float:
        """Fraction of set bits (saturation indicator)."""
        return self._bits.count(1) / self.size


class CountingBloomFilter:
    """Counting Bloom filter with saturating counters.

    ``counter_max`` models the hardware counter width (the paper uses
    12-bit counters at NRH=32K, just wide enough to reach NBL); counting
    saturates rather than wraps, preserving the no-false-negative
    property.
    """

    def __init__(
        self,
        size: int,
        hash_count: int = 4,
        counter_max: int = (1 << 12) - 1,
        rng: DeterministicRng | None = None,
        hashes: HashFamily | None = None,
    ) -> None:
        require(size >= 2, "filter size must be >= 2")
        require(counter_max >= 1, "counter_max must be >= 1")
        self.size = size
        self.counter_max = counter_max
        self.hashes = hashes or MixHashFamily(
            hash_count, size, rng or DeterministicRng(0)
        )
        # A plain list outperforms a numpy array for the single-element
        # reads/writes this hot path performs.
        self._counters = [0] * size
        self.insertions = 0

    def insert(self, key: int) -> int:
        """Increment ``key``'s counters; returns the new estimate."""
        counters = self._counters
        cap = self.counter_max
        estimate = cap
        for index in self.hashes.indices(key):
            value = counters[index]
            if value < cap:
                value += 1
                counters[index] = value
            if value < estimate:
                estimate = value
        self.insertions += 1
        return estimate

    def test(self, key: int) -> int:
        """Upper-bound estimate of ``key``'s insertion count."""
        counters = self._counters
        return min(counters[index] for index in self.hashes.indices(key))

    def clear(self, reseed: bool = True) -> None:
        """Zero all counters and (by default) re-randomize hash seeds."""
        self._counters = [0] * self.size
        self.insertions = 0
        if reseed:
            self.hashes.reseed()
