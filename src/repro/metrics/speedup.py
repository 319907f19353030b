"""Multiprogrammed performance metrics.

The paper reports system throughput as weighted speedup [32, 94, 136],
job turnaround as harmonic speedup [32, 91], and fairness as maximum
slowdown [27-30, ...], all computed over *benign* threads only ("the
performance of a RowHammer attack should not be accounted for").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import require


def _check(shared: dict[int, float], alone: dict[int, float]) -> None:
    require(set(shared) == set(alone), "shared/alone thread sets differ")
    require(len(shared) > 0, "need at least one thread")
    require(all(v > 0 for v in alone.values()), "alone IPCs must be positive")


def weighted_speedup(shared_ipc: dict[int, float], alone_ipc: dict[int, float]) -> float:
    """Sum of per-thread IPC_shared / IPC_alone (system throughput)."""
    _check(shared_ipc, alone_ipc)
    return sum(shared_ipc[t] / alone_ipc[t] for t in shared_ipc)


def harmonic_speedup(shared_ipc: dict[int, float], alone_ipc: dict[int, float]) -> float:
    """n / sum(IPC_alone / IPC_shared) (job turnaround time)."""
    _check(shared_ipc, alone_ipc)
    denominator = sum(
        alone_ipc[t] / shared_ipc[t] if shared_ipc[t] > 0 else float("inf")
        for t in shared_ipc
    )
    return len(shared_ipc) / denominator if denominator > 0 else 0.0


def maximum_slowdown(shared_ipc: dict[int, float], alone_ipc: dict[int, float]) -> float:
    """max over threads of IPC_alone / IPC_shared (unfairness)."""
    _check(shared_ipc, alone_ipc)
    return max(
        alone_ipc[t] / shared_ipc[t] if shared_ipc[t] > 0 else float("inf")
        for t in shared_ipc
    )


def _ratio(value: float, baseline: float) -> float:
    """``value / baseline`` with IEEE semantics for a zero baseline
    (x/0 -> ±inf, 0/0 -> nan) instead of ZeroDivisionError: a baseline
    benign thread that retires nothing has harmonic speedup 0."""
    if baseline == 0:
        if value == 0 or math.isnan(value):
            return math.nan
        return math.copysign(math.inf, value)
    return value / baseline


@dataclass(frozen=True)
class MultiprogramMetrics:
    """The three paper metrics for one workload run."""

    weighted_speedup: float
    harmonic_speedup: float
    maximum_slowdown: float

    def normalized_to(self, baseline: "MultiprogramMetrics") -> "MultiprogramMetrics":
        """Each metric divided by the baseline's (Figure 5/6 style)."""
        return MultiprogramMetrics(
            weighted_speedup=_ratio(self.weighted_speedup, baseline.weighted_speedup),
            harmonic_speedup=_ratio(self.harmonic_speedup, baseline.harmonic_speedup),
            maximum_slowdown=_ratio(self.maximum_slowdown, baseline.maximum_slowdown),
        )


def compute_metrics(
    shared_ipc: dict[int, float], alone_ipc: dict[int, float]
) -> MultiprogramMetrics:
    """All three metrics at once."""
    return MultiprogramMetrics(
        weighted_speedup=weighted_speedup(shared_ipc, alone_ipc),
        harmonic_speedup=harmonic_speedup(shared_ipc, alone_ipc),
        maximum_slowdown=maximum_slowdown(shared_ipc, alone_ipc),
    )
