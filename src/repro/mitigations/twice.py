"""TWiCe: Time Window Counters (Lee et al., ISCA 2019).

TWiCe keeps one table entry per recently-activated row: an activation
count and an age (in pruning intervals).  At every pruning interval
(tREFI) it drops entries whose average activation rate is too low to
ever reach the RowHammer threshold within the refresh window — which
keeps the table small for benign workloads.  When an entry's count
crosses the row-hammer threshold, the row's neighbors are refreshed and
the entry resets.

As in the paper (Section 7), the pruning stage limits how far TWiCe can
scale: our implementation follows the TWiCe-Ideal variant of Kim et al.
[72] so it can be configured below NRH = 32K for the scaling study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mitigations.base import MitigationContext, MitigationMechanism
from repro.mitigations.common import effective_nrh


@dataclass
class _Entry:
    count: int = 0
    life: int = 0  # pruning intervals since allocation


class TWiCe(MitigationMechanism):
    """TWiCe(-Ideal) with tREFI pruning."""

    name = "twice"
    comprehensive_protection = True
    commodity_compatible = False
    scales_with_vulnerability = False
    deterministic_protection = True

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[tuple[int, int], dict[int, _Entry]] = {}
        self._next_prune = 0.0
        self.refresh_threshold = 0
        self.prune_rate = 0.0
        self.refreshes_injected = 0
        self.max_table_entries = 0

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        spec = context.spec
        self.refresh_threshold = max(2, int(effective_nrh(context) / 2))
        intervals_per_window = max(1.0, spec.tREFW / spec.tREFI)
        # An entry that cannot reach the refresh threshold within the
        # refresh window at its observed average rate is safe to prune.
        self.prune_rate = self.refresh_threshold / intervals_per_window
        self._next_prune = spec.tREFI

    # ------------------------------------------------------------------
    def advance_to(self, now: float) -> float:
        while now >= self._next_prune:
            for table in self._tables.values():
                dead = []
                for row, entry in table.items():
                    entry.life += 1
                    if entry.count < entry.life * self.prune_rate:
                        dead.append(row)
                for row in dead:
                    del table[row]
            self._next_prune += self.context.spec.tREFI
        return self._next_prune

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        table = self._tables.setdefault((rank, bank), {})
        entry = table.setdefault(row, _Entry())
        entry.count += 1
        self.max_table_entries = max(self.max_table_entries, len(table))
        if entry.count >= self.refresh_threshold:
            victims = 0
            for victim in self.context.adjacency(
                rank, bank, row, self.context.blast_radius
            ):
                self.queue_victim_refresh(rank, bank, victim)
                self.refreshes_injected += 1
                victims += 1
            entry.count = 0
            entry.life = 0
            if self.probe is not None:
                self.probe(
                    now,
                    "neighbor_refresh",
                    self.obs_track,
                    rank=rank,
                    bank=bank,
                    row=row,
                    victims=victims,
                )
