"""Naive proactive throttling (Greenfield & Levy patent [40]; Kim et al.
[73]; Mutlu [102]).

The straightforward throttling designs the paper contrasts BlockHammer
against (Section 9):

* **per-row counters** — count every row's activations exactly and block
  a row once it reaches the threshold until the refresh window rolls
  over.  Deterministic, but needs a counter per row (the prohibitive
  area cost BlockHammer's Bloom filters eliminate).
* **static slowdown** (``static_delay=True``) — stretch every ACT's
  minimum spacing so that *no* row can ever exceed the threshold:
  ``tDelay_static = tREFW / NRH_eff`` (a 42x–1350x tRC stretch for
  NRH = 32K/1K, which is why it is a strawman).
"""

from __future__ import annotations

from repro.mitigations.base import MitigationContext, MitigationMechanism
from repro.mitigations.common import effective_nrh


class NaiveThrottling(MitigationMechanism):
    """Exact per-row counting with end-of-window blocking."""

    name = "naive-throttle"
    comprehensive_protection = True
    commodity_compatible = True
    scales_with_vulnerability = False
    deterministic_protection = True

    def __init__(self, static_delay: bool = False) -> None:
        super().__init__()
        self.static_delay = static_delay
        self.threshold = 0
        self._counts: dict[tuple[int, int, int], int] = {}
        self._window_end = 0.0
        self._static_gap = 0.0
        self._last_act: dict[tuple[int, int, int], float] = {}
        self.blocked_rows = 0

    def attach(self, context: MitigationContext) -> None:
        super().attach(context)
        self.threshold = max(1, int(effective_nrh(context)))
        self._window_end = context.spec.tREFW
        self._static_gap = context.spec.tREFW / self.threshold

    def advance_to(self, now: float) -> float:
        while now >= self._window_end:
            self._counts.clear()
            self._last_act.clear()
            self._window_end += self.context.spec.tREFW
        return self._window_end

    def act_allowed_at(self, rank: int, bank: int, row: int, thread: int, now: float) -> float:
        key = (rank, bank, row)
        if self.static_delay:
            last = self._last_act.get(key)
            if last is None:
                return now
            return max(now, last + self._static_gap)
        if self._counts.get(key, 0) >= self.threshold:
            return self._window_end  # blocked until the window rolls over
        return now

    def on_activate(self, rank: int, bank: int, row: int, thread: int, now: float) -> None:
        key = (rank, bank, row)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        self._last_act[key] = now
        if count == self.threshold:
            self.blocked_rows += 1
