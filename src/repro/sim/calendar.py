"""Calendar-queue event scheduler: O(1) insert/pop for clustered times.

A DES produces event times that cluster tightly around ``now`` — think
times, sub-millisecond service times, link latencies — with a thin far
tail (run-until deadlines, recovery windows).  A binary heap pays
``O(log n)`` sift costs on every operation; a *calendar queue* (Brown,
CACM 1988) exploits the clustering: near-future events go into an
array of fixed-width time buckets (append, O(1)), far-future events
into a small sorted overflow heap, and the consumer walks the wheel
slot by slot, sorting each small bucket once as it becomes current.

Ordering contract
-----------------
Entries are the kernel's packed ``(time, key, event)`` tuples, where
``key = (priority << _KEY_SHIFT) | sequence`` — exactly the binary
heap's ordering key.  The queue pops entries in globally sorted
``(time, key)`` order, so FIFO tie-breaking (and therefore the
golden-trace hashes) is byte-identical to the heap scheduler it
replaces:

* the slot mapping ``int((t - base) * inv_width)`` is monotone in
  ``t``, so an entry can never land in an earlier slot than a
  strictly-earlier entry;
* within a slot, entries are sorted by full ``(time, key)`` tuple
  comparison when the slot becomes current;
* entries scheduled *into the current slot* while it drains (the
  zero-delay ``succeed``/``_trigger_now`` case) are placed by binary
  insertion into the undrained suffix — they carry a fresh, larger
  sequence number than any already-popped entry at the same time, and
  tuple comparison orders them correctly against everything pending.

Resizing
--------
The wheel doubles when occupancy exceeds :data:`GROW_FACTOR` entries
per bucket, re-estimating the bucket width from the median inter-event
gap of the pending set; it halves at epoch rollover when occupancy has
fallen below :data:`SHRINK_FACTOR`.  Both triggers are pure functions
of the pending entries, so resize points — and the resulting pop
order, which resizing never changes — are deterministic.

The hot paths (``push``, and the pop fast path that
``Environment.run`` inlines) are written against this class's slots
directly; keep the attribute layout stable.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Optional

__all__ = ["CalendarQueue"]

_INF = float("inf")

#: Initial wheel geometry: 256 buckets of 1 ms cover a 0.256 s span,
#: which holds the sub-millisecond service/link times the
#: millibottleneck models produce; think-time events (~1 s) start in
#: the overflow heap and migrate into the wheel as epochs advance (or
#: the wheel resizes toward their spacing).
DEFAULT_BUCKETS = 256
DEFAULT_WIDTH = 0.001
#: Grow when pending entries exceed this many per bucket.
GROW_FACTOR = 2
#: Shrink (checked at epoch rollover) below this many per bucket.
SHRINK_FACTOR = 0.25
MIN_BUCKETS = 64
MAX_BUCKETS = 1 << 17
#: Bucket width never drops below 1 ns: narrower buckets cannot
#: separate distinct float timestamps at simulation scale and only
#: inflate empty-slot scans.
MIN_WIDTH = 1e-9


class CalendarQueue:
    """Priority queue of ``(time, key, payload)`` tuples on a timer wheel."""

    __slots__ = ("_buckets", "_nbuckets", "_width", "_inv_width", "_base",
                 "_span", "_horizon", "_cur_slot", "_ready", "_ready_idx",
                 "_overflow", "_count", "_grow_at")

    def __init__(self, start_time: float = 0.0,
                 nbuckets: int = DEFAULT_BUCKETS,
                 width: float = DEFAULT_WIDTH) -> None:
        self._overflow: list[tuple] = []
        self._count = 0
        self._init_wheel(nbuckets, width, start_time)

    def _init_wheel(self, nbuckets: int, width: float, base: float) -> None:
        self._buckets: list[list] = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._width = width
        self._inv_width = 1.0 / width
        self._base = base
        self._span = nbuckets * width
        self._horizon = base + self._span
        self._cur_slot = 0
        #: The current slot's bucket, kept sorted; ``_ready_idx`` marks
        #: the consumed prefix.  Popped cells are overwritten with
        #: ``None`` so a bucket never keeps a processed event alive
        #: through a lingering entry tuple.
        self._ready = self._buckets[0]
        self._ready_idx = 0
        self._grow_at = (GROW_FACTOR * nbuckets if nbuckets < MAX_BUCKETS
                         else _INF)

    # -- sizing ------------------------------------------------------------
    #: ``_count`` is maintained lazily: pushes increment it, but pops
    #: from the current slot only advance ``_ready_idx`` — the pending
    #: size is ``_count - _ready_idx``, reconciled whenever ``_advance``
    #: or ``_resize`` rebuilds state.  This keeps the dispatch loop's
    #: inlined pop down to an index bump and a cell store.
    def __len__(self) -> int:
        return self._count - self._ready_idx

    def __bool__(self) -> bool:
        return self._count > self._ready_idx

    # -- insert ------------------------------------------------------------
    def push(self, entry: tuple) -> None:
        """Insert ``entry == (time, key, payload)``; amortised O(1)."""
        t = entry[0]
        self._count += 1
        if t >= self._horizon:
            heappush(self._overflow, entry)
            return
        idx = int((t - self._base) * self._inv_width)
        if idx >= self._nbuckets:  # float-rounding guard at the edge
            idx = self._nbuckets - 1
        if idx > self._cur_slot:
            # Future slot of the current epoch: plain append, sorted
            # lazily when the slot becomes current.
            self._buckets[idx].append(entry)
        else:
            # Current slot (zero-delay triggers land here): binary
            # insertion into the undrained suffix keeps pop order
            # exact.  ``idx < cur`` only happens through float
            # rounding right after a resize; the suffix insertion is
            # still correct because ``t`` is never behind the clock.
            # Fresh sequence numbers are monotone, so the entry
            # usually belongs after the whole suffix — one comparison
            # against the tail replaces the bisection then (``insort``
            # right-biases ties, so the positions agree).
            ready = self._ready
            if len(ready) == self._ready_idx or entry >= ready[-1]:
                ready.append(entry)
            else:
                insort(ready, entry, self._ready_idx)
        if self._count > self._grow_at:
            self._resize(self._nbuckets * 2)

    def push_overflow(self, entry: tuple) -> None:
        """Internal: overflow insert for callers that inlined the wheel
        branch of :meth:`push` and already counted the entry."""
        heappush(self._overflow, entry)

    # -- remove ------------------------------------------------------------
    def pop(self) -> Optional[tuple]:
        """Remove and return the least entry, or ``None`` when empty.

        ``Environment.run`` inlines the first branch of this method;
        ``_advance`` is the shared slow path.
        """
        idx = self._ready_idx
        ready = self._ready
        if idx < len(ready):
            entry = ready[idx]
            ready[idx] = None
            self._ready_idx = idx + 1
            return entry
        return self._advance()

    def _advance(self) -> Optional[tuple]:
        """Slow path: the current slot is drained — find the next entry.

        Walks the remaining slots of this epoch; at rollover, refills
        the wheel from the overflow heap (jumping straight to the
        overflow minimum's epoch when the gap is large) and considers
        a shrink.  Returns ``None`` only when the queue is empty.
        """
        self._count -= self._ready_idx
        self._ready_idx = 0
        del self._ready[:]
        if self._count == 0:
            return None
        slot = self._cur_slot
        buckets = self._buckets
        nbuckets = self._nbuckets
        while True:
            slot += 1
            if slot >= nbuckets:
                self._rollover()
                buckets = self._buckets
                nbuckets = self._nbuckets
                slot = 0
            bucket = buckets[slot]
            if bucket:
                if len(bucket) > 1:
                    bucket.sort()
                self._cur_slot = slot
                self._ready = bucket
                self._ready_idx = 1
                entry = bucket[0]
                bucket[0] = None
                return entry

    def _rollover(self) -> None:
        """Advance the wheel to the epoch holding the next pending entry.

        Reached only with every bucket empty (the epoch scan just
        exhausted them), so all pending entries sit in the overflow
        heap and can be redistributed against the new ``base``.
        """
        overflow = self._overflow
        t_min = overflow[0][0]
        span = self._span
        base = self._base + span
        if t_min >= base + span:
            # Jump whole epochs instead of scanning empty wheels.
            base += int((t_min - base) / span) * span
            while t_min < base:  # float-rounding guards, <= 2 iterations
                base -= span
            while t_min >= base + span:
                base += span
        nbuckets = self._nbuckets
        if (self._count < nbuckets * SHRINK_FACTOR
                and nbuckets > MIN_BUCKETS):
            self._init_wheel(nbuckets // 2, self._width * 2, base)
        else:
            self._base = base
            self._horizon = base + span
            self._cur_slot = 0
            self._ready = self._buckets[0]
            self._ready_idx = 0
        buckets = self._buckets
        horizon = self._horizon
        inv_width = self._inv_width
        new_base = self._base
        last = self._nbuckets - 1
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            idx = int((entry[0] - new_base) * inv_width)
            buckets[idx if idx < last else last].append(entry)

    # -- resize ------------------------------------------------------------
    def _resize(self, nbuckets: int) -> None:
        """Rebuild the wheel with ``nbuckets`` buckets and a width
        re-estimated from the pending set's median inter-event gap, so
        clustered schedules get narrow buckets and sparse ones wide."""
        if nbuckets > MAX_BUCKETS:
            nbuckets = MAX_BUCKETS
        if nbuckets == self._nbuckets:
            self._grow_at = _INF
            return
        entries = self._drain_entries()
        width = _estimate_width(entries, self._width)
        base = entries[0][0] if entries else self._base
        self._init_wheel(nbuckets, width, base)
        self._count = len(entries)
        horizon = self._horizon
        buckets = self._buckets
        inv_width = self._inv_width
        last = nbuckets - 1
        overflow = self._overflow = []
        split = _bisect_time(entries, horizon)
        for entry in entries[:split]:
            idx = int((entry[0] - base) * inv_width)
            buckets[idx if idx < last else last].append(entry)
        # ``entries`` is sorted, so the tail is already a valid heap.
        overflow.extend(entries[split:])
        # The first slot is current: sort it so pops resume exactly.
        self._ready = self._buckets[0]
        self._ready.sort()
        # Back off when the rebuild could not spread the pending set
        # (e.g. a large same-timestamp cluster): without this, every
        # subsequent grow check would re-trigger an O(n) rebuild.  The
        # doubled trigger keeps total resize work amortised O(n).
        if self._count > self._grow_at:
            self._grow_at = self._count * GROW_FACTOR

    def _drain_entries(self) -> list[tuple]:
        """All pending entries in sorted order (consumed prefix dropped)."""
        entries = [e for e in self._ready[self._ready_idx:]
                   if e is not None]
        for slot in range(self._cur_slot + 1, self._nbuckets):
            entries.extend(self._buckets[slot])
        entries.sort()
        entries.extend(sorted(self._overflow))
        return entries

    # -- introspection (tests, repr) ---------------------------------------
    @property
    def nbuckets(self) -> int:
        return self._nbuckets

    @property
    def width(self) -> float:
        return self._width

    def __repr__(self) -> str:
        return ("<CalendarQueue n={} buckets={} width={:g} base={:g} "
                "overflow={}>".format(self._count, self._nbuckets,
                                      self._width, self._base,
                                      len(self._overflow)))


def _bisect_time(entries: list[tuple], t: float) -> int:
    """First index whose entry time is ``>= t`` (``entries`` sorted)."""
    lo, hi = 0, len(entries)
    while lo < hi:
        mid = (lo + hi) // 2
        if entries[mid][0] < t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _estimate_width(entries: list[tuple], fallback: float) -> float:
    """Median inter-event gap of (a sample of) ``entries``, floored.

    Brown's classic estimator samples the queue around its median;
    pending entries are already sorted here, so take an evenly spaced
    sample and use the median positive gap — robust against both the
    dense zero-delay cluster at ``now`` and far-future outliers.
    """
    n = len(entries)
    if n < 2:
        return max(fallback, MIN_WIDTH)
    step = max(1, n // 64)
    sample = [entries[i][0] for i in range(0, n, step)]
    gaps = sorted(b - a for a, b in zip(sample, sample[1:]) if b > a)
    if not gaps:
        return max(fallback, MIN_WIDTH)
    median = gaps[len(gaps) // 2]
    return max(median * 2.0, MIN_WIDTH)
