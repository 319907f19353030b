"""Graphene (Park et al., MICRO 2020): Misra–Gries frequent-element
tracking of row activations.

Graphene keeps, per bank, a Misra–Gries summary: a table of (row,
counter) pairs plus a spillover counter.  The summary guarantees that
any row activated at least ``W / (entries + 1)`` times in a window of
``W`` activations is present in the table with an estimate that
undercounts by at most the spillover value.  Sizing the table with
threshold ``T``::

    entries = ceil(W / T),   W = tREFW / tRC

guarantees no aggressor reaches ``2T`` activations unobserved; Graphene
refreshes neighbors each time a tracked counter crosses a multiple of
``T``.  The table resets every refresh window.

Graphene is deterministic and the strongest prior baseline in the paper;
its cost scales as CAM entries ∝ 1/NRH (Table 4).
"""

from __future__ import annotations

import math

from repro.mitigations.base import MitigationContext, MitigationMechanism
from repro.mitigations.common import effective_nrh


class Graphene(MitigationMechanism):
    """Graphene with the original sizing equations."""

    name = "graphene"
    comprehensive_protection = True
    commodity_compatible = False
    scales_with_vulnerability = True
    deterministic_protection = True

    def __init__(self, threshold: int | None = None) -> None:
        super().__init__()
        self._threshold_override = threshold
        self.threshold = 0
        self.table_entries = 0
        self._tables: dict[tuple[int, int], dict[int, int]] = {}
        self._spill: dict[tuple[int, int], int] = {}
        self._next_reset = 0.0
        self.refreshes_injected = 0

    @staticmethod
    def sizing(nrh_eff: float, t_refw_ns: float, t_rc_ns: float) -> tuple[int, int]:
        """(threshold, table entries) per the Graphene equations."""
        threshold = max(2, int(nrh_eff / 4))
        window_acts = t_refw_ns / t_rc_ns
        entries = max(1, math.ceil(window_acts / threshold))
        return threshold, entries

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        spec = context.spec
        nrh_eff = effective_nrh(context)
        self.threshold, self.table_entries = self.sizing(nrh_eff, spec.tREFW, spec.tRC)
        if self._threshold_override is not None:
            self.threshold = self._threshold_override
        self._next_reset = spec.tREFW

    # ------------------------------------------------------------------
    def advance_to(self, now: float) -> float:
        while now >= self._next_reset:
            self._tables.clear()
            self._spill.clear()
            self._next_reset += self.context.spec.tREFW
        return self._next_reset

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        key = (rank, bank)
        table = self._tables.setdefault(key, {})
        if row in table:
            table[row] += 1
            if table[row] % self.threshold == 0:
                self._refresh_neighbors(rank, bank, row, now)
            return
        if len(table) < self.table_entries:
            table[row] = 1
            return
        # Misra–Gries spillover update: replace the minimum entry when
        # the spill counter catches up with it, else absorb the ACT.
        spill = self._spill.get(key, 0)
        min_row = min(table, key=table.get)
        if table[min_row] <= spill + 1:
            estimate = table.pop(min_row)
            table[row] = estimate + 1
            self._spill[key] = estimate
        else:
            self._spill[key] = spill + 1

    def _refresh_neighbors(self, rank: int, bank: int, row: int, now: float) -> None:
        victims = 0
        for victim in self.context.adjacency(rank, bank, row, self.context.blast_radius):
            self.queue_victim_refresh(rank, bank, victim)
            self.refreshes_injected += 1
            victims += 1
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
