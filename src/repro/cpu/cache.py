"""A set-associative, write-back, write-allocate LLC model.

The paper's system has a 16 MB, 8-way, 64 B-line last-level cache
(Table 5).  Workload profiles in ``repro.workloads`` are calibrated as
LLC-miss streams (their MPKI is Table 8's post-LLC value), so systems may
run without a cache; the model is provided for end-to-end configurations
and for filtering raw traces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.utils.validation import require


@dataclass
class CacheStats:
    """Hit/miss/writeback counters."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache access."""

    hit: bool
    writeback_address: int | None = None


class SetAssocCache:
    """LRU set-associative cache over cache-line addresses."""

    def __init__(
        self, size_bytes: int = 16 * 1024 * 1024, ways: int = 8, line_bytes: int = 64
    ) -> None:
        require(size_bytes % (ways * line_bytes) == 0, "size must be set-aligned")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        # Per set: OrderedDict tag -> dirty flag; LRU at the front.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Access one line; returns hit/miss and an eviction writeback."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.move_to_end(tag)
            ways[tag] = ways[tag] or is_write
            self.stats.hits += 1
            return AccessResult(hit=True)
        self.stats.misses += 1
        writeback = None
        if len(ways) >= self.ways:
            victim_tag, dirty = ways.popitem(last=False)
            if dirty:
                victim_line = victim_tag * self.num_sets + set_index
                writeback = victim_line * self.line_bytes
                self.stats.writebacks += 1
        ways[tag] = is_write
        return AccessResult(hit=False, writeback_address=writeback)

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]
