"""Queue-based load leveling in front of a balancer boundary.

The paper's VLRT mechanism needs every frontend worker to be stuck in
the dispatcher before the accept queue can overflow.  A leveling queue
breaks that chain: the worker parks the request in a **bounded** FIFO
and returns to the accept loop immediately, while a fixed set of drain
processes forwards queued requests through the boundary's dispatcher.
The kernel backlog then never fills behind a millibottleneck — TCP
retransmission (and its RTO-multiple VLRTs) never triggers — at the
price of explicit, fast overflow decisions once the FIFO is full:

* ``reject`` — refuse the arriving request (it gets a fast shed
  response);
* ``drop_oldest`` — evict the head of the queue to admit the arrival
  (the evicted request gets the shed response instead).

The queue itself schedules no events; only the drain processes do, and
they exist only when a leveling queue is configured.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.sim.events import _PENDING, Event
from repro.sim.queues import StoreGet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.workload.request import Request

#: What to do with a full leveling queue.
OVERFLOW_POLICIES = ("reject", "drop_oldest")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class LevelingConfig:
    """Bounded-FIFO load-leveling knobs (frozen, JSON-roundtrippable)."""

    #: Maximum queued requests — the burst the boundary absorbs.  Sized
    #: to ride out a full flush stall at the paper's scale without
    #: shedding the whole release burst.
    capacity: int = 128
    #: Concurrent drain processes forwarding into the dispatcher.
    drain_concurrency: int = 8
    #: Overflow policy once the FIFO is full.
    overflow: str = "reject"

    def __post_init__(self) -> None:
        _require(self.capacity >= 1, "leveling capacity must be >= 1")
        _require(self.drain_concurrency >= 1,
                 "leveling drain_concurrency must be >= 1")
        _require(self.overflow in OVERFLOW_POLICIES,
                 "unknown leveling overflow policy {!r} (one of {})".format(
                     self.overflow, ", ".join(OVERFLOW_POLICIES)))


class LevelingQueue:
    """Bounded FIFO + drain pool decoupling a tier from its boundary.

    ``drain`` is a callable ``request -> process generator`` that runs
    the boundary crossing (dispatch, post-work, completion); ``on_shed``
    is called with every rejected or evicted request so the owner can
    answer it fast and keep its conservation identities exact.
    """

    def __init__(self, env: "Environment", config: LevelingConfig,
                 drain: Callable, on_shed: Callable,
                 name: str = "leveling") -> None:
        self.env = env
        self.config = config
        self.name = name
        self._drain = drain
        self._on_shed = on_shed
        # Bounded by offer() below, never by the deque itself —
        # drop_oldest must run the eviction callback, which maxlen's
        # silent eviction cannot.
        self._items: deque = deque()  # statan: ignore[QUEUE001] -- offer() enforces config.capacity
        self._getters: deque[StoreGet] = deque()  # statan: ignore[QUEUE001] -- one waiter per drain process
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.evicted = 0
        self.drained = 0
        self.peak_length = 0
        self._drains = [env.process(self._drain_loop())
                        for _ in range(config.drain_concurrency)]

    def __len__(self) -> int:
        return len(self._items)

    @property
    def sheds(self) -> int:
        """Requests answered by overflow policy instead of the boundary."""
        return self.rejected + self.evicted

    # -- producer side -------------------------------------------------------
    def offer(self, request: "Request") -> bool:
        """Park ``request`` without blocking; ``False`` means rejected.

        ``drop_oldest`` always accepts the arrival but evicts (and
        sheds, via ``on_shed``) the queue head to make room.
        """
        self.offered += 1
        tracer = self.env.tracer
        if self._getters:
            # A drain process is idle: hand the request over directly.
            self.accepted += 1
            get = self._getters.popleft()
            get._value = request
            self.env._trigger_now(get)
            return True
        if len(self._items) >= self.config.capacity:
            if self.config.overflow == "reject":
                self.rejected += 1
                return False
            victim = self._items.popleft()
            self.evicted += 1
            if tracer is not None:
                tracer.finish_named(victim.request_id,
                                    self.name + ".queue_wait")
            self._on_shed(victim)
        self.accepted += 1
        if tracer is not None:
            tracer.start_named(request.request_id,
                               self.name + ".queue_wait", queue=self.name)
        self._items.append(request)
        if len(self._items) > self.peak_length:
            self.peak_length = len(self._items)
        return True

    # -- consumer side -------------------------------------------------------
    def _get(self) -> StoreGet:
        event = StoreGet.__new__(StoreGet)
        event.env = self.env
        event.callbacks = []
        event._ok = True
        event._defused = False
        event._store = self
        if self._items:
            request = self._items.popleft()
            tracer = self.env.tracer
            if tracer is not None:
                tracer.finish_named(request.request_id,
                                    self.name + ".queue_wait")
            event._value = request
            self.env._trigger_now(event)
        else:
            event._value = _PENDING
            self._getters.append(event)
        return event

    # StoreGet.cancel expects the owning store to expose ``_get_queue``.
    @property
    def _get_queue(self) -> deque:
        return self._getters

    def _drain_loop(self):
        while True:
            request = yield self._get()
            self.drained += 1
            yield from self._drain(request)

    def __repr__(self) -> str:
        return "<LevelingQueue {} {}/{} sheds={}>".format(
            self.name, len(self._items), self.config.capacity, self.sheds)


class LevelingDispatcher:
    """Drop-in dispatcher wrapper levelling a mid-tier boundary.

    Frontends integrate :class:`LevelingQueue` natively (the worker
    answers the client while drains dispatch); deeper boundaries keep
    request/reply semantics, so this wrapper parks the caller on a
    per-request reply event instead: callers never block *inside* the
    inner dispatcher, only on the bounded queue.  Overflow surfaces as
    :class:`~repro.errors.NoCandidateError`, which upstream tiers
    already translate into fast degraded responses.
    """

    def __init__(self, env: "Environment", inner, config: LevelingConfig,
                 name: str = "leveling") -> None:
        from repro.errors import NoCandidateError

        self.env = env
        self.inner = inner
        self.name = name
        self._no_candidate = NoCandidateError
        self._replies: dict[int, Event] = {}
        self.queue = LevelingQueue(env, config, drain=self._drain_one,
                                   on_shed=self._shed, name=name)

    def dispatch(self, request: "Request"):
        reply = Event(self.env)
        self._replies[request.request_id] = reply
        if not self.queue.offer(request):
            del self._replies[request.request_id]
            raise self._no_candidate(
                self.name + ": leveling queue full")
        yield reply

    def _drain_one(self, request: "Request"):
        reply = self._replies.pop(request.request_id)
        try:
            yield from self.inner.dispatch(request)
        except self._no_candidate as error:
            reply.fail(error)
            return
        reply.succeed(request)

    def _shed(self, victim: "Request") -> None:
        reply = self._replies.pop(victim.request_id)
        reply.fail(self._no_candidate(
            self.name + ": evicted from leveling queue"))

    def __getattr__(self, attribute: str):
        # Accounting attributes (dispatches, completed, members...) read
        # through to the wrapped dispatcher.
        return getattr(self.inner, attribute)
