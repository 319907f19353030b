"""DRAM timing and geometry specifications.

A :class:`DramSpec` captures the standardized timing parameters the
memory controller must honor (Section 2.1) plus device geometry.  All
times are in nanoseconds.  Presets follow JEDEC datasheet values for
DDR4-2400 (the paper's Table 5 configuration), LPDDR4-3200, and
DDR3-1600.

Because a Python simulator cannot execute 64 ms of DRAM traffic per data
point, :meth:`DramSpec.scaled` produces a spec whose *window-scale*
parameters (tREFW, tREFI) are divided by a scale factor while per-command
timings are untouched.  Mitigation thresholds (NRH, NBL, ...) must be
scaled by the same factor so that every acts-per-window ratio the
mechanisms depend on is preserved; see DESIGN.md substitution 3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.units import MS, US
from repro.utils.validation import require


@dataclass(frozen=True)
class DramSpec:
    """Timing (ns) and geometry of one DRAM channel.

    Attributes mirror JEDEC names: tRC is the minimum ACT-to-ACT delay to
    the same bank, tFAW bounds four consecutive ACTs in a rank, tREFW is
    the refresh window within which every row is refreshed once, tREFI
    the interval between auto-refresh (REF) commands.
    """

    name: str = "DDR4-2400"
    # Geometry.  ``channels`` is the number of independent channels the
    # memory *system* fans out; every other geometry/timing field
    # describes one channel (a :class:`~repro.dram.device.DramDevice`
    # models exactly one channel and is instantiated per channel by the
    # :class:`~repro.mem.memsystem.MemorySystem`).
    channels: int = 1
    ranks: int = 1
    banks_per_rank: int = 16
    rows_per_bank: int = 65536
    columns_per_row: int = 128  # cache-line-sized columns
    line_bytes: int = 64
    # Core timings (ns).
    tCK: float = 0.833
    tRCD: float = 14.16
    tRP: float = 14.16
    tRAS: float = 32.0
    tRC: float = 46.25
    tCL: float = 14.16
    tCWL: float = 10.0
    tBL: float = 3.33
    tCCD: float = 5.0
    tRRD: float = 4.9
    tFAW: float = 35.0
    tWR: float = 15.0
    tWTR: float = 7.5
    tRTP: float = 7.5
    tRTW: float = 8.3
    # Refresh.
    tRFC: float = 350.0
    tREFI: float = 7812.5
    tREFW: float = 64.0 * MS
    refresh_groups: int = 8192  # REF commands per tREFW

    def __post_init__(self) -> None:
        require(self.channels >= 1, "channels must be >= 1")
        require(self.ranks >= 1, "ranks must be >= 1")
        require(self.banks_per_rank >= 1, "banks_per_rank must be >= 1")
        require(self.rows_per_bank >= 2, "rows_per_bank must be >= 2")
        require(self.tRC >= self.tRAS, "tRC must cover tRAS")
        require(self.tREFW > 0 and self.tREFI > 0, "refresh timings must be positive")
        require(self.refresh_groups >= 1, "refresh_groups must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Total addressable bytes across all channels (addresses beyond
        this wrap in :class:`~repro.dram.address.AddressMapping`)."""
        return (
            self.channels
            * self.ranks
            * self.banks_per_rank
            * self.rows_per_bank
            * self.columns_per_row
            * self.line_bytes
        )

    def with_channels(self, channels: int) -> "DramSpec":
        """This spec re-declared with ``channels`` memory channels."""
        if channels == self.channels:
            return self
        return replace(self, channels=channels)

    @property
    def rows_per_refresh_group(self) -> int:
        """Rows per bank refreshed by a single REF command."""
        return max(1, self.rows_per_bank // self.refresh_groups)

    # ------------------------------------------------------------------
    # Scaling for tractable simulation.
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "DramSpec":
        """Return a spec with the refresh window shrunk by ``factor``.

        Per-command timings — including tREFI and tRFC, and hence the
        refresh duty cycle — are preserved so bank/bus contention
        behaves identically; only the window length (and hence the
        absolute number of activations a window can contain) shrinks.
        The REF walk is re-partitioned so the whole array is still
        refreshed once per (scaled) tREFW.  Pair this with mitigation
        thresholds scaled by the same factor.
        """
        require(factor >= 1.0, "scale factor must be >= 1")
        t_refw = self.tREFW / factor
        groups = max(4, int(round(t_refw / self.tREFI)))
        return replace(
            self,
            name=f"{self.name}/scaled{factor:g}",
            tREFW=t_refw,
            refresh_groups=groups,
        )


DDR4_2400 = DramSpec()

LPDDR4_3200 = DramSpec(
    name="LPDDR4-3200",
    banks_per_rank=8,
    tCK=0.625,
    tRCD=18.0,
    tRP=18.0,
    tRAS=42.0,
    tRC=60.0,
    tCL=17.5,
    tCWL=9.0,
    tBL=2.5,
    tCCD=5.0,
    tRRD=7.5,
    tFAW=30.0,
    tWR=18.0,
    tRFC=280.0,
    tREFI=3906.25,
    tREFW=32.0 * MS,  # LPDDR4 halves tREFW (Section 3.1.3)
)

DDR3_1600 = DramSpec(
    name="DDR3-1600",
    banks_per_rank=8,
    tCK=1.25,
    tRCD=13.75,
    tRP=13.75,
    tRAS=35.0,
    tRC=48.75,
    tCL=13.75,
    tCWL=10.0,
    tBL=5.0,
    tCCD=6.25,
    tRRD=6.0,
    tFAW=40.0,
    tWR=15.0,
    tRFC=260.0,
    tREFI=7812.5,
    tREFW=64.0 * MS,
)


def scaled_threshold(threshold: int, factor: float) -> int:
    """Scale an activation-count threshold consistently with a scaled spec.

    Keeps a floor of 1 so degenerate configurations stay well-formed.
    """
    return max(1, int(round(threshold / factor)))
