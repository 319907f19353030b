"""Bounded request queues (Table 5: 64-entry read and write queues).

The queue maintains two views of its contents: a flat arrival-ordered
list (``items``) and a per-bank index (``by_bank``) keyed by
``Request.bank_key``.  FR-FCFS consumes the per-bank view so one
scheduling step no longer scans the full queue twice; arrival-order
tie-breaking is preserved through ``Request.queue_seq``, assigned
monotonically on insertion.

On top of the views sits the incremental scheduler's **per-bank
candidate cache** (``bank_cache``): the FR-FCFS policy stores each
bank's scheduling decision (best candidate request + command kind +
verdict-expiry + wake time) here and trusts it until the bank is
*dirtied*.  Dirty-bank tracking is cooperative:

* the queue itself invalidates on ``push`` (a new arrival can become
  the oldest hit or kill a precharge decision via hit protection) and
  on ``remove`` (the cached candidate may be the departing request);
* the memory controller invalidates through :meth:`invalidate_bank` /
  :meth:`invalidate_rank` whenever a command changes a bank's row-buffer
  state or its mitigation verdicts (ACT/PRE/VREF, REF for the rank);
* time-driven verdict changes (a blocked row's delay expiring, a
  blacklist epoch rotation) need no callback: every cached entry carries
  its own expiry instant and the scheduler re-examines the bank once
  ``now`` passes it.

A bank absent from ``bank_cache`` is dirty; the policy re-walks it on
the next scheduling step and re-caches the result.
"""

from __future__ import annotations

from repro.dram.address import BANK_KEY_BITS, bank_key
from repro.mem.request import Request
from repro.utils.validation import require


class RequestQueue:
    """A FIFO-ordered, capacity-bounded request queue.

    Order is arrival order; FR-FCFS ties break toward older requests
    (smaller ``queue_seq``).
    """

    __slots__ = (
        "capacity",
        "_items",
        "by_bank",
        "bank_cache",
        "hit_heap",
        "ready_hits",
        "rank_heaps",
        "expiry_heap",
        "heap_seq",
        "dirty",
        "_next_seq",
    )

    def __init__(self, capacity: int = 64) -> None:
        require(capacity >= 1, "queue capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Request] = []
        #: Arrival-ordered requests per bank_key (scheduler hot path).
        self.by_bank: dict[int, list[Request]] = {}
        #: Scheduler-maintained per-bank decision cache: bank_key ->
        #: entry tuple (see ``repro.mem.scheduler``).  Entries are
        #: dropped here on push/remove and by the controller on
        #: row-buffer / verdict changes; the scheduler itself drops
        #: entries whose expiry instant has passed.  Only the scheduler
        #: may insert entries: it mirrors each store into the lazy heaps
        #: below, which its steps-with-nothing-ready fast path relies on.
        self.bank_cache: dict[int, tuple] = {}
        #: Lazy min-heaps over live cache entries.  Every entry sits in
        #: one *wake* heap keyed by its bank-local time (hit column
        #: timing / ACT gate / PRE gate), items (local_t, heap_seq,
        #: bank_key, entry).  Once that time has come due, readiness
        #: depends only on the class's shared scalar, so the item
        #: migrates (once: a bank-local time never un-passes) to the
        #: class's *ready* heap keyed by arrival order, items
        #: (queue_seq, bank_key, entry), whose live top is the FR-FCFS
        #: winner.  An item is dead when ``bank_cache[bank_key] is not
        #: entry``.  Maintained entirely by the scheduler — see
        #: ``FrFcfsPolicy.make_fused``.
        #:
        #: Hits share the channel's data bus, so their two heaps are
        #: channel-wide.
        self.hit_heap: list = []
        self.ready_hits: list = []
        #: Row commands are gated per rank (tRRD/tFAW for ACT, refresh
        #: draining for both), so ``rank_heaps[rank]`` holds that
        #: rank's (ACT wake, PRE wake, ACT ready, PRE ready) heaps.  The
        #: scheduler appends one tuple per device rank when it binds.
        self.rank_heaps: list[tuple[list, list, list, list]] = []
        #: Lazy min-heap of entry expiry instants (wake-heap item shape).
        self.expiry_heap: list = []
        #: Monotonic tiebreaker for heap items (entry tuples containing
        #: Requests do not order).
        self.heap_seq = 0
        #: Banks needing re-examination: every invalidation records the
        #: key here so a scheduling step walks the dirtied banks only,
        #: never the whole queue.  Drained by the scheduling step
        #: ``FrFcfsPolicy.make_fused`` returns.
        self.dirty: set[int] = set()
        self._next_seq = 0

    @property
    def items(self) -> list[Request]:
        """The queue contents in arrival order (read-only by convention;
        exposed without copying for the scheduler's hot path)."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, request: Request) -> None:
        """Append ``request``; raises if the queue is full."""
        require(not self.full, "pushing into a full request queue")
        request.queue_seq = self._next_seq
        self._next_seq += 1
        self._items.append(request)
        key = request.bank_key
        bank_list = self.by_bank.get(key)
        if bank_list is None:
            self.by_bank[key] = [request]
        else:
            bank_list.append(request)
        self.bank_cache.pop(key, None)
        self.dirty.add(key)

    def remove(self, request: Request) -> None:
        """Remove a serviced request."""
        self._items.remove(request)
        key = request.bank_key
        bank_list = self.by_bank[key]
        if len(bank_list) == 1:
            del self.by_bank[key]
        else:
            bank_list.remove(request)
        self.bank_cache.pop(key, None)
        self.dirty.add(key)

    # ------------------------------------------------------------------
    # Dirty-bank tracking (controller-facing).
    # ------------------------------------------------------------------
    def invalidate_bank(self, key: int) -> None:
        """Mark one bank dirty: drop its cached scheduling decision."""
        self.bank_cache.pop(key, None)
        self.dirty.add(key)

    def invalidate_rank(self, rank: int) -> None:
        """Mark every bank of ``rank`` dirty (rank-wide commands: REF)."""
        lo = rank << BANK_KEY_BITS
        hi = lo + (1 << BANK_KEY_BITS)
        for key in [k for k in self.bank_cache if lo <= k < hi]:
            del self.bank_cache[key]
            self.dirty.add(key)

    def invalidate_all(self) -> None:
        """Drop every cached bank decision."""
        self.dirty.update(self.bank_cache)
        self.bank_cache.clear()

    def requests_for_bank(self, rank: int, bank: int) -> list[Request]:
        """Queued requests targeting (rank, bank), oldest first."""
        return list(self.by_bank.get(bank_key(rank, bank), ()))
