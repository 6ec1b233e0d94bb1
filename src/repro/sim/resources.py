"""Shared resources with waiting queues.

:class:`Resource` models a fixed number of identical slots (threads,
connections, CPU cores) that processes acquire and release.  Requests
that cannot be served immediately queue in FIFO order.

Requests support the context-manager protocol so a typical usage is::

    with resource.request() as req:
        yield req            # wait until a slot is free
        yield env.timeout(service_time)
    # slot released automatically

A pending request can also be *cancelled* — this is essential for
"wait with timeout" patterns such as mod_jk's ``cache_acquire_timeout``::

    req = pool.request()
    outcome = yield req | env.timeout(0.3)
    if req not in outcome:
        req.cancel()         # give up on the slot
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """A pending or granted claim on one slot of a :class:`Resource`.

    Built only by :meth:`Resource.request`.  ``issued_at`` is the time
    the request was issued (used for queue-wait metrics).
    """

    __slots__ = ("resource", "priority", "issued_at")

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        # cancel_or_release() inlined — one __exit__ per served request.
        if self._value is not _PENDING:
            self.resource.release(self)
        else:
            self.resource._withdraw(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        if self.triggered:
            raise SimulationError(
                "cannot cancel a granted request; release it instead")
        self.resource._withdraw(self)

    def cancel_or_release(self) -> None:
        """Withdraw if still pending, release if already granted."""
        if self.triggered:
            self.resource.release(self)
        else:
            self.resource._withdraw(self)


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    __slots__ = ("env", "_capacity", "_users", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self.env = env
        self._capacity = int(capacity)
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    def __repr__(self) -> str:
        return "<{} capacity={} in_use={} queued={}>".format(
            type(self).__name__, self._capacity, self.count, len(self._waiting))

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self._capacity - len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self, priority: float = 0.0, _new=Request.__new__,
                _cls=Request) -> Request:
        """Claim one slot; the returned event triggers when granted."""
        event = _new(_cls)
        env = self.env
        event.env = env
        event.callbacks = []
        event._ok = True
        event._defused = False
        event.resource = self
        event.priority = priority
        event.issued_at = env._now
        users = self._users
        if len(users) < self._capacity and not self._waiting:
            users.append(event)
            # Fresh request: trigger directly, skipping succeed().
            event._value = event
            env._trigger_now(event)
        else:
            event._value = _PENDING
            self._insert_waiting(event)
        return event

    def release(self, request: Request) -> None:
        """Return a granted slot to the pool and admit the next waiter."""
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            raise SimulationError(
                "release of a request that does not hold a slot") from None
        waiting = self._waiting
        if waiting:
            env = self.env
            capacity = self._capacity
            while waiting and len(users) < capacity:
                nxt = waiting.popleft()
                users.append(nxt)
                nxt._value = nxt
                env._trigger_now(nxt)

    # -- internal ----------------------------------------------------------
    def _insert_waiting(self, request: Request) -> None:
        self._waiting.append(request)

    def _withdraw(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            raise SimulationError(
                "cancel of a request that is not waiting") from None


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by priority.

    Lower ``priority`` values are served first; ties break FIFO.
    """

    __slots__ = ()

    def _insert_waiting(self, request: Request) -> None:
        index = len(self._waiting)
        for i, waiting in enumerate(self._waiting):
            if waiting.priority > request.priority:
                index = i
                break
        self._waiting.insert(index, request)
