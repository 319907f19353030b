"""A minimal discrete-event queue.

Events are ``(time, callback)`` pairs; ties break by insertion order so
simulations are fully deterministic.  :meth:`EventQueue.pop_at` lets the
simulation loop drain every wake scheduled for one instant in a single
iteration (same-tick controller/core wakes are common: one per channel
plus request completions), skipping the per-event loop bookkeeping
without changing execution order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class EventQueue:
    """Priority queue of timed callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()

    def push(self, time: float, callback: Callable[[float], None]) -> None:
        """Schedule ``callback(time)``."""
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def pop(self) -> tuple[float, Callable[[float], None]]:
        """Remove and return the earliest ``(time, callback)``."""
        time, _, callback = heapq.heappop(self._heap)
        return time, callback

    @property
    def heap(self) -> list[tuple[float, int, Callable[[float], None]]]:
        """The live event heap of ``(time, seq, callback)`` entries.

        The same list for the queue's whole life, so a caller may bind
        it once and read its top (``heap[0][0]``, guarded by
        truthiness) without a method call.  Read-only: only this class
        pushes and pops."""
        return self._heap

    def peek_time(self) -> float | None:
        """Earliest scheduled time, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def pop_at(self, time: float) -> Callable[[float], None] | None:
        """Pop the next callback only if it is scheduled exactly at
        ``time``; None otherwise.  Ties still drain in insertion order,
        including events pushed *for the same instant* while a batch is
        draining (they carry larger sequence numbers and pop last)."""
        heap = self._heap
        if heap and heap[0][0] == time:
            return heapq.heappop(heap)[2]
        return None

    @property
    def empty(self) -> bool:
        return not self._heap

    def __len__(self) -> int:
        return len(self._heap)
