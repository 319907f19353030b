"""RowHammer disturbance and bit-flip model (Sections 2.2 and 4).

Each ACT to physical row ``p`` disturbs victims at distance ``k`` by the
blast impact factor ``c_k`` (c_1 = 1, decaying with distance, zero past
the blast radius).  A victim accumulates disturbance, in units of
"equivalent adjacent-row activations", since its last refresh; when the
accumulated disturbance reaches the RowHammer threshold NRH, a bit-flip
is recorded.  Refreshing a row (auto-refresh or victim refresh) resets
its accumulated disturbance.

The paper's worst-case characterization values are ``r_blast = 6`` and
``c_k = 0.5**(k-1)``; the evaluation's double-sided attack model uses
``r_blast = 1`` (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import require


@dataclass(frozen=True)
class DisturbanceProfile:
    """Physical RowHammer characteristics of a DRAM chip."""

    nrh: int = 32768
    blast_radius: int = 1
    decay: float = 0.5  # c_k = decay**(k-1)

    def __post_init__(self) -> None:
        require(self.nrh >= 1, "NRH must be >= 1")
        require(self.blast_radius >= 1, "blast radius must be >= 1")
        require(0.0 < self.decay <= 1.0, "decay must be in (0, 1]")

    def impact(self, distance: int) -> float:
        """Blast impact factor c_k for a victim ``distance`` rows away."""
        if distance < 1 or distance > self.blast_radius:
            return 0.0
        return self.decay ** (distance - 1)

    def impact_sum(self) -> float:
        """Sum of c_k over the blast radius (one side)."""
        return sum(self.impact(k) for k in range(1, self.blast_radius + 1))


@dataclass(frozen=True)
class BitFlip:
    """A recorded RowHammer bit-flip in one bank."""

    time_ns: float
    rank: int
    bank: int
    physical_row: int
    disturbance: float


class DisturbanceModel:
    """Tracks per-victim disturbance for one bank.

    State is sparse: only rows that have received disturbance since their
    last refresh occupy memory.  Each victim produces at most one
    recorded bit-flip per refresh period (further hammering keeps the
    victim in the flipped set until it is refreshed).
    """

    def __init__(self, profile: DisturbanceProfile, rows: int, rank: int, bank: int) -> None:
        self.profile = profile
        self.rows = rows
        self.rank = rank
        self.bank = bank
        self._disturbance: dict[int, float] = {}
        self._flipped: set[int] = set()
        self.bitflips: list[BitFlip] = []

    def on_activate(self, physical_row: int, now: float) -> list[BitFlip]:
        """Apply the disturbance of activating ``physical_row`` at ``now``.

        Returns the list of *new* bit-flips this activation caused.
        """
        new_flips: list[BitFlip] = []
        for k in range(1, self.profile.blast_radius + 1):
            c = self.profile.impact(k)
            for victim in (physical_row - k, physical_row + k):
                if victim < 0 or victim >= self.rows:
                    continue
                level = self._disturbance.get(victim, 0.0) + c
                self._disturbance[victim] = level
                if level >= self.profile.nrh and victim not in self._flipped:
                    self._flipped.add(victim)
                    flip = BitFlip(now, self.rank, self.bank, victim, level)
                    self.bitflips.append(flip)
                    new_flips.append(flip)
        return new_flips

    def on_refresh_row(self, physical_row: int) -> None:
        """Reset a row's accumulated disturbance (row got refreshed)."""
        self._disturbance.pop(physical_row, None)
        self._flipped.discard(physical_row)

    def on_refresh_range(self, start: int, count: int) -> None:
        """Reset disturbance for ``count`` rows starting at ``start``
        (modulo the array size) — the effect of one REF group.

        Scans whichever is smaller: the row range or the set of rows
        currently carrying disturbance, so large REF groups stay cheap
        when few rows are disturbed (the common case).
        """
        if not self._disturbance and not self._flipped:
            return
        end = start + count
        rows = self.rows

        def in_range(row: int) -> bool:
            if end <= rows:
                return start <= row < end
            return row >= start or row < end - rows

        if len(self._disturbance) + len(self._flipped) <= count:
            for row in [r for r in self._disturbance if in_range(r)]:
                del self._disturbance[row]
            for row in [r for r in self._flipped if in_range(r)]:
                self._flipped.discard(row)
        else:
            for offset in range(count):
                self.on_refresh_row((start + offset) % rows)

    def disturbance_of(self, physical_row: int) -> float:
        """Current accumulated disturbance of ``physical_row``."""
        return self._disturbance.get(physical_row, 0.0)

    def max_disturbance(self) -> float:
        """Largest accumulated disturbance across all rows (0 if none)."""
        return max(self._disturbance.values(), default=0.0)
