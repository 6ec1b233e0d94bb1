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
The schedule is a plain list kept in heap order by the standard
library's C :mod:`heapq`: every insert is one ``heappush`` and
:meth:`run` pops with one ``heappop``.  Entries are ``(time, key,
event)`` 3-tuples where ``key`` packs ``(priority, sequence)`` into one
integer, so tie-breaking costs a single int comparison, the event
itself is never compared (sequence numbers are unique), and events pop
in exact ``(time, priority, creation)`` order — the golden-trace tests
pin that contract.  The pending set stays small (a few thousand
events), and a bucketed calendar queue measured no faster on any real
workload; see ``DESIGN.md §12``.

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

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError, StopSimulation
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
        self._sched: list = []
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
        (``NaN`` compares false against everything, and an ``inf``
        entry would drag the clock to infinity) and is rejected with
        :class:`SimulationError`.
        """
        if not 0.0 <= delay < _inf:
            raise SimulationError(
                "delay must be finite and non-negative, got {!r}".format(
                    delay))
        self._eid = eid = self._eid + 1
        heappush(self._sched,
                 (self._now + delay, (priority << _KEY_SHIFT) | eid, event))

    def _trigger_now(self, event: Event, key: int = _NORMAL_KEY,
                     _push=heappush) -> None:
        """Internal: schedule an already-triggered event at the current
        time.

        Fast path used by the resource/queue layers after they set the
        event's ``_value`` directly — equivalent to ``schedule(event)``
        without the delay validation (there is no delay) and without an
        extra call frame from ``succeed``.  ``key`` is the priority
        already shifted into place: ``_NORMAL_KEY`` by default,
        ``_URGENT_KEY`` (zero) for process start and interrupt
        delivery, so the packed key is byte-identical to what
        ``schedule(event, priority)`` would produce.
        """
        self._eid = eid = self._eid + 1
        _push(self._sched, (self._now, key | eid, event))

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, _new=Timeout.__new__,
                _cls=Timeout, _inf=_INF, _key=_NORMAL_KEY,
                _push=heappush) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now.

        This is the kernel's dominant allocation, and the only way a
        :class:`Timeout` is built: the instance is created already
        triggered through ``Timeout.__new__``, with no ``__init__``/
        ``schedule`` call chain.  An invalid delay is rejected with
        :class:`SimulationError`, exactly as :meth:`schedule` rejects it.
        """
        if not 0.0 <= delay < _inf:
            raise SimulationError(
                "delay must be finite and non-negative, got {!r}".format(
                    delay))
        event = _new(_cls)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        self._eid = eid = self._eid + 1
        _push(self._sched, (self._now + delay, _key | eid, event))
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
        # a local.
        heap = self._sched
        pop = heappop
        trace = self.trace
        try:
            while True:
                try:
                    when, _, event = pop(heap)
                except IndexError:
                    break
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
