"""Physical-address-to-DRAM-coordinate mapping.

The memory controller decodes a flat physical byte address into
(channel, rank, bank, row, column).  The paper's system (Table 5) uses
the MOP ("Minimalist Open Page", Kaseridis et al. [60]) scheme, which
interleaves small runs of consecutive cache lines across banks to
balance row-buffer locality against bank-level parallelism.  A simple
row:rank:bank:col scheme is provided for comparison and testing.

Both schemes carry a channel-interleave variant: when the spec declares
more than one channel, channel bits sit directly above the within-run
column bits, so consecutive MOP runs (or consecutive same-row column
sweeps in ROW_BANK_COL) rotate across channels before rotating across
banks — channel-level parallelism at run granularity.  With one channel
the channel digit is the identity (``line % 1 == 0``), so single-channel
decoding is bit-identical to the channel-free layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from repro.dram.spec import DramSpec
from repro.utils.validation import require


class MappingScheme(enum.Enum):
    """Supported controller address-interleaving schemes."""

    MOP = "mop"
    ROW_BANK_COL = "row_bank_col"


#: Bits reserved for the bank id inside a flat per-bank key
#: (``(rank << BANK_KEY_BITS) | bank``).  Shared by ``Request.bank_key``,
#: the request queues' per-bank index, the device's flat bank table, and
#: the scheduler's rank extraction — change it in one place only.
#: Supports up to 64 banks per rank (beyond any spec in this study).
#: Bank keys are channel-local: each channel's controller/device pair
#: owns its own queues and flat bank table.
BANK_KEY_BITS = 6

#: Decode-memo size bound per mapping (entries).  Mappings outlive any
#: single simulation (see :func:`shared_mapping`), so the memo is reset
#: wholesale when it reaches this many distinct addresses — far beyond
#: any one sweep's working set, but a hard cap on process memory.
_DECODE_CACHE_LIMIT = 1 << 20


def bank_key(rank: int, bank: int) -> int:
    """The flat per-bank key used across the memory subsystem."""
    return (rank << BANK_KEY_BITS) | bank


@dataclass(frozen=True, order=True, slots=True)
class DecodedAddress:
    """DRAM coordinates of one cache-line-sized access.

    ``channel`` defaults to 0 so single-channel call sites (and every
    pre-multi-channel construction) stay valid unchanged.
    """

    rank: int
    bank: int
    row: int
    col: int
    channel: int = 0


class AddressMapping:
    """Bidirectional mapping between byte addresses and DRAM coordinates.

    MOP layout, from least-significant bits upward::

        [line offset | mop-run column | channel | bank | rank | column-high | row]

    so ``mop_run`` consecutive lines land in the same row of the same
    bank (of the same channel) before the stream moves to the next
    channel, then the next bank.

    Decoding is memoized per byte address: cores replay looping traces,
    so the same line addresses are decoded millions of times per
    simulation while the number of *distinct* addresses is bounded by
    the workload's working set (see ``decode``).
    """

    def __init__(
        self,
        spec: DramSpec,
        scheme: MappingScheme = MappingScheme.MOP,
        mop_run: int = 4,
    ) -> None:
        require(mop_run >= 1, "mop_run must be >= 1")
        require(spec.columns_per_row % mop_run == 0, "mop_run must divide columns")
        self.spec = spec
        self.scheme = scheme
        self.mop_run = mop_run
        # Per-instance decode memo (hot path: Core._fetch_next decodes
        # one address per trace record).  Mappings are long-lived and
        # memoized per spec, so the memo is shared by every replay of a
        # working set; it is reset wholesale at _DECODE_CACHE_LIMIT so a
        # process-lifetime mapping cannot accumulate unbounded state.
        self._decode_cache: dict[int, DecodedAddress] = {}

    # ------------------------------------------------------------------
    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address into DRAM coordinates (memoized)."""
        cached = self._decode_cache.get(address)
        if cached is not None:
            return cached
        require(address >= 0, "address must be non-negative")
        s = self.spec
        line = address // s.line_bytes
        if self.scheme is MappingScheme.MOP:
            low_col = line % self.mop_run
            line //= self.mop_run
            channel = line % s.channels
            line //= s.channels
            bank = line % s.banks_per_rank
            line //= s.banks_per_rank
            rank = line % s.ranks
            line //= s.ranks
            high_col = line % (s.columns_per_row // self.mop_run)
            line //= s.columns_per_row // self.mop_run
            row = line % s.rows_per_bank
            col = high_col * self.mop_run + low_col
            decoded = DecodedAddress(rank, bank, row, col, channel)
        else:
            # ROW_BANK_COL: [col | channel | bank | rank | row]
            col = line % s.columns_per_row
            line //= s.columns_per_row
            channel = line % s.channels
            line //= s.channels
            bank = line % s.banks_per_rank
            line //= s.banks_per_rank
            rank = line % s.ranks
            line //= s.ranks
            row = line % s.rows_per_bank
            decoded = DecodedAddress(rank, bank, row, col, channel)
        if len(self._decode_cache) >= _DECODE_CACHE_LIMIT:
            self._decode_cache.clear()
        self._decode_cache[address] = decoded
        return decoded

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (returns a byte address)."""
        s = self.spec
        if self.scheme is MappingScheme.MOP:
            high_col, low_col = divmod(decoded.col, self.mop_run)
            line = decoded.row
            line = line * (s.columns_per_row // self.mop_run) + high_col
            line = line * s.ranks + decoded.rank
            line = line * s.banks_per_rank + decoded.bank
            line = line * s.channels + decoded.channel
            line = line * self.mop_run + low_col
            return line * s.line_bytes
        line = decoded.row
        line = line * s.ranks + decoded.rank
        line = line * s.banks_per_rank + decoded.bank
        line = line * s.channels + decoded.channel
        line = line * s.columns_per_row + decoded.col
        return line * s.line_bytes


@lru_cache(maxsize=8)
def shared_mapping(
    spec: DramSpec,
    scheme: MappingScheme = MappingScheme.MOP,
    mop_run: int = 4,
) -> AddressMapping:
    """The process-wide :class:`AddressMapping` for a configuration.

    Mappings are stateless apart from the decode memo; sharing one
    instance per (spec, scheme, mop_run) lets every simulation of a
    sweep reuse the memo instead of re-decoding the working set from
    scratch per run.  The memo is bounded to a few configurations,
    since each mapping carries up to _DECODE_CACHE_LIMIT decodes.
    """
    return AddressMapping(spec, scheme, mop_run)
