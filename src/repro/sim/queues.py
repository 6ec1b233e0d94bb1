"""Item queues for message passing between simulation components.

Two flavours are provided:

* :class:`Store` — unbounded (or blocking-bounded) FIFO of arbitrary
  items; ``put`` and ``get`` are events.
* :class:`DropQueue` — a finite queue with a **non-blocking** ``offer``
  that *drops* the item when the queue is full.  This models a TCP
  listen/accept queue: an arriving SYN either lands in the backlog or
  is silently discarded, it never blocks the sender.  Drop callbacks
  let the network layer schedule retransmissions.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class StorePut(Event):
    """Pending ``put`` on a :class:`Store`."""

    __slots__ = ("item",)


class StoreGet(Event):
    """Pending ``get`` on a :class:`Store`."""

    __slots__ = ("_store",)

    def cancel(self) -> None:
        """Withdraw this get if it has not been fulfilled yet."""
        if not self.triggered:
            # deque.remove is O(n) but get queues stay short in practice.
            try:
                # The owning store (or drop queue) is recorded on the
                # event at construction time.
                self._store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO of items with event-based ``put``/``get``.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum items held; ``put`` events wait (do not drop) while the
        store is full.  Defaults to unbounded.
    """

    __slots__ = ("env", "_capacity", "items", "_put_queue", "_get_queue")

    def __init__(self, env: "Environment",
                 capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __repr__(self) -> str:
        return "<Store items={} capacity={}>".format(
            len(self.items), self._capacity)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def capacity(self) -> float:
        return self._capacity

    # Settling is inlined into ``put``/``get``: between operations the
    # store is *settled* (no put is blocked while space exists, no get
    # waits while items exist), so a single arrival can unblock at most
    # one event on the other side — no fixed-point loop is needed, and
    # the trigger order (put before the get it feeds, get before the
    # put it makes room for) is byte-identical to the loop this
    # replaced, which the golden-trace tests pin.

    def put(self, item: Any, _new=StorePut.__new__,
            _cls=StorePut) -> StorePut:
        """Append ``item``; the event triggers once the item is stored."""
        event = _new(_cls)
        env = self.env
        event.env = env
        event.callbacks = []
        event._ok = True
        event._defused = False
        event.item = item
        items = self.items
        if self._put_queue or len(items) >= self._capacity:
            # Blocked behind earlier puts, or simply out of space.
            event._value = _PENDING
            self._put_queue.append(event)
            return event
        items.append(item)
        event._value = item
        env._trigger_now(event)
        if self._get_queue:
            # A settled store with waiting getters was empty, so the
            # item just stored is the one handed over.
            get = self._get_queue.popleft()
            get._value = items.popleft()
            env._trigger_now(get)
        return event

    def get(self, _new=StoreGet.__new__, _cls=StoreGet) -> StoreGet:
        """Take the oldest item; the event triggers with that item."""
        event = _new(_cls)
        env = self.env
        event.env = env
        event.callbacks = []
        event._ok = True
        event._defused = False
        event._store = self
        items = self.items
        if not items:
            event._value = _PENDING
            self._get_queue.append(event)
            return event
        event._value = items.popleft()
        env._trigger_now(event)
        put_queue = self._put_queue
        if put_queue and len(items) < self._capacity:
            # The take made room: admit the oldest blocked put.
            put = put_queue.popleft()
            put_item = put.item
            items.append(put_item)
            put._value = put_item
            env._trigger_now(put)
        return event


class DropQueue:
    """Finite FIFO that drops on overflow instead of blocking.

    The occupancy counted against ``capacity`` is ``len(items)`` plus
    any *reserved* slots (see :meth:`reserve`), mirroring how a kernel
    accept queue counts not-yet-accepted connections.
    """

    __slots__ = ("env", "_capacity", "items", "_get_queue", "_on_drop",
                 "offered", "accepted", "dropped", "peak_length")

    def __init__(self, env: "Environment", capacity: int,
                 on_drop: Optional[Callable[[Any], None]] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self._capacity = int(capacity)
        self.items: deque[Any] = deque()
        self._get_queue: deque[StoreGet] = deque()
        self._on_drop = on_drop
        #: Counters for observability.
        self.offered = 0
        self.accepted = 0
        self.dropped = 0
        #: High-water mark of the queue length.
        self.peak_length = 0

    def __repr__(self) -> str:
        return "<DropQueue {}/{} dropped={}>".format(
            len(self.items), self._capacity, self.dropped)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def capacity(self) -> int:
        return self._capacity

    def offer(self, item: Any) -> bool:
        """Try to enqueue ``item`` without blocking.

        Returns ``True`` if accepted.  On overflow the item is dropped,
        the drop callback (if any) runs, and ``False`` is returned.
        """
        self.offered += 1
        if self._get_queue:
            # A consumer is already waiting: hand the item over directly.
            self.accepted += 1
            get = self._get_queue.popleft()
            get._value = item
            self.env._trigger_now(get)
            return True
        if len(self.items) >= self._capacity:
            self.dropped += 1
            if self._on_drop is not None:
                self._on_drop(item)
            return False
        self.accepted += 1
        self.items.append(item)
        if len(self.items) > self.peak_length:
            self.peak_length = len(self.items)
        return True

    def get(self) -> StoreGet:
        """Take the oldest item; the event triggers with that item."""
        event = StoreGet.__new__(StoreGet)
        event.env = self.env
        event.callbacks = []
        event._value = _PENDING
        event._ok = True
        event._defused = False
        event._store = self
        if self.items:
            event._value = self.items.popleft()
            self.env._trigger_now(event)
        else:
            self._get_queue.append(event)
        return event
