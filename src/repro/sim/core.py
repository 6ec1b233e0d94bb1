"""The discrete-event simulation environment.

:class:`Environment` owns the simulation clock and the pending-event
schedule.  Time is a ``float`` in **seconds**; the models in this
package operate at sub-millisecond resolution, which is the whole point
of studying millibottlenecks.

Typical usage::

    env = Environment()

    def hello(env):
        yield env.timeout(1.0)
        return "done"

    proc = env.process(hello(env))
    env.run(until=10.0)
    assert proc.value == "done"

Performance notes
-----------------
The event loop is the hot path of every experiment, so :meth:`run`
is the only dispatch loop and keeps it inline.
The schedule is a :class:`~repro.sim.calendar.CalendarQueue` — O(1)
insert and pop for the clustered event-time distributions a DES
produces, against O(log n) heap sifts — and :meth:`run` inlines the
queue's pop fast path (an index bump on the current bucket) so the
per-event cost is a handful of attribute operations plus the callback
calls.  Entries are ``(time, key, event)`` 3-tuples where ``key``
packs ``(priority, sequence)`` into one integer, so tie-breaking costs
a single int comparison, the event itself is never compared, and pop
order is byte-identical to the binary-heap kernel this replaced (the
golden-trace tests pin that contract).

The hottest factories (:meth:`Environment.timeout`,
:meth:`Resource.request <repro.sim.resources.Resource.request>`,
``Store.put``/``get``, process start) build their events through
``Cls.__new__`` and plain slot stores instead of an ``__init__`` chain,
and are the only construction path of those classes.  Processed events are left to the
collector — a free list of recycled events measured no faster.  See
``DESIGN.md §12``.

:attr:`Environment.trace`, when set to a callable, is invoked as
``trace(time, event)`` for every event popped off the schedule, from
the same dispatch loop every run uses; unset it costs one ``is None``
test per event.  The golden-trace determinism tests are built on it.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError, StopSimulation
from repro.sim.calendar import CalendarQueue
from repro.sim.events import (
    _KEY_SHIFT,
    _NORMAL_KEY,
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator

__all__ = ["Environment", "NORMAL", "URGENT"]

_INF = float("inf")


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Clock value at the start of the simulation (seconds).
    """

    __slots__ = ("_now", "_sched", "_eid", "_active_process", "trace",
                 "tracer")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._sched = CalendarQueue(self._now)
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Optional probe called as ``trace(time, event)`` for every
        #: event processed.  ``None`` (the default) disables it.
        self.trace: Optional[Callable[[float, Event], None]] = None
        #: Optional per-request span tracer (see :mod:`repro.tracing`).
        #: The kernel never reads it — model components check it with a
        #: single ``is not None`` guard, so ``None`` (the default) is
        #: zero-cost and the tracer itself schedules no events.
        self.tracer: Optional[Any] = None

    # -- introspection ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def __len__(self) -> int:
        return len(self._sched)

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0, _inf=_INF) -> None:
        """Put a triggered event on the schedule ``delay`` seconds out.

        ``delay`` must be finite and non-negative: a ``NaN`` or ``inf``
        delay would silently corrupt the schedule's ordering invariant
        (``NaN`` compares false against everything, and the calendar's
        slot arithmetic turns ``inf`` into nonsense indices) and is
        rejected with :class:`SimulationError`.
        """
        if not 0.0 <= delay < _inf:
            raise SimulationError(
                "delay must be finite and non-negative, got {!r}".format(
                    delay))
        self._eid = eid = self._eid + 1
        self._sched.push(
            (self._now + delay, (priority << _KEY_SHIFT) | eid, event))

    def _trigger_now(self, event: Event, key: int = _NORMAL_KEY,
                     _insort=insort) -> None:
        """Internal: schedule an already-triggered event at the current
        time.

        Fast path used by the resource/queue layers after they set the
        event's ``_value`` directly — equivalent to ``schedule(event)``
        without the delay validation (there is no delay) and without an
        extra call frame from ``succeed``.  ``key`` is the priority
        already shifted into place: ``_NORMAL_KEY`` by default,
        ``_URGENT_KEY`` (zero) for process start and interrupt
        delivery, so the packed key is byte-identical to what
        ``schedule(event, priority)`` would produce.  The calendar insert
        collapses to one binary insertion: an entry at the current
        clock can never map past the current slot (the slot mapping is
        monotone and the clock equals the last popped entry's time), so
        it always belongs in the current slot's undrained suffix —
        every other pending entry is strictly later or, at the same
        time, key-ordered by the insort.  Sequence numbers are
        monotone, so the entry usually sorts after the whole suffix:
        one tuple comparison against the tail replaces the bisection
        (and its O(log n) equal-time tuple compares) in that case —
        ``insort`` right-biases ties, so the append lands on the
        identical position.
        """
        self._eid = eid = self._eid + 1
        sched = self._sched
        sched._count += 1
        ready = sched._ready
        entry = (self._now, key | eid, event)
        if len(ready) == sched._ready_idx or entry >= ready[-1]:
            ready.append(entry)
        else:
            _insort(ready, entry, sched._ready_idx)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, _new=Timeout.__new__,
                _cls=Timeout, _inf=_INF, _key=_NORMAL_KEY,
                _insort=insort) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now.

        This is the kernel's dominant allocation, and the only way a
        :class:`Timeout` is built: the instance is created already
        triggered through ``Timeout.__new__``, with no ``__init__``/
        ``schedule`` call chain, and the calendar insert is inlined.
        """
        if not 0.0 <= delay < _inf:
            raise ValueError("invalid delay: {!r}".format(delay))
        event = _new(_cls)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        self._eid = eid = self._eid + 1
        t = self._now + delay
        sched = self._sched
        entry = (t, _key | eid, event)
        sched._count += 1
        if t >= sched._horizon:
            sched.push_overflow(entry)
            return event
        idx = int((t - sched._base) * sched._inv_width)
        if idx >= sched._nbuckets:
            idx = sched._nbuckets - 1
        if idx > sched._cur_slot:
            sched._buckets[idx].append(entry)
        else:
            ready = sched._ready
            if len(ready) == sched._ready_idx or entry >= ready[-1]:
                ready.append(entry)
            else:
                _insort(ready, entry, sched._ready_idx)
        # Growth check amortised to every 256th event: the sequence
        # counter is already in hand, and resize points remain a pure
        # function of the event sequence (determinism holds — resizing
        # never changes pop order anyway).
        if not eid & 255 and sched._count > sched._grow_at:
            sched._resize(sched._nbuckets * 2)
        return event

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that triggers once every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that triggers once any event in ``events`` has."""
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain.
            a number — run until the clock reaches that time.
            an :class:`Event` — run until that event is processed and
            return its value.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(_stop_callback)
        else:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    "until ({}) is before current time ({})".format(
                        deadline, self._now))
            stop_event = Event(self)
            stop_event._ok = True
            stop_event._value = None
            stop_event.callbacks.append(_stop_callback)
            self.schedule(stop_event, priority=URGENT,
                          delay=deadline - self._now)

        # The dispatch loop.  Everything the per-event path touches is
        # a local.  The calendar pop fast path is inlined: consume the
        # next cell of the current (sorted) bucket, nulling it out so
        # the bucket does not keep a processed event alive.
        sched = self._sched
        advance = sched._advance
        trace = self.trace
        try:
            while True:
                ridx = sched._ready_idx
                ready = sched._ready
                try:
                    # IndexError <=> the current slot is drained.
                    when, _, event = ready[ridx]
                    ready[ridx] = None
                    sched._ready_idx = ridx + 1
                except IndexError:
                    # Probe the next slot inline (the dominant slow-path
                    # case for sparse wheels) before falling back to the
                    # generic advance; this mirrors _advance's one-step
                    # bookkeeping.
                    nxt = sched._cur_slot + 1
                    bucket = (sched._buckets[nxt]
                              if nxt < sched._nbuckets else None)
                    if bucket:
                        sched._count -= ridx
                        del ready[:]
                        if len(bucket) > 1:
                            bucket.sort()
                        sched._cur_slot = nxt
                        sched._ready = bucket
                        sched._ready_idx = 1
                        when, _, event = bucket[0]
                        bucket[0] = None
                    else:
                        entry = advance()
                        if entry is None:
                            break
                        when, _, event = entry
                self._now = when
                if trace is not None:
                    trace(when, event)
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    # Dominant case: exactly one waiter.
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None and isinstance(until, Event):
            raise SimulationError(
                "simulation ran out of events before {!r} triggered".format(
                    until))
        return None


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event.defuse()
    raise event._value
