"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine design (as popularised
by SimPy): simulation *processes* are Python generators that ``yield``
:class:`Event` instances and are resumed when those events trigger.

An event moves through three stages:

1. *pending* — created, not yet triggered;
2. *triggered* — a value (or exception) has been attached and the event
   has been placed on the environment's schedule;
3. *processed* — the scheduler has popped the event and run its callbacks.

Only the transition from pending to triggered is under user control
(via :meth:`Event.succeed` / :meth:`Event.fail`).

All event classes use ``__slots__``: events are allocated on every
request/timeout/resource interaction, so avoiding the per-instance
``__dict__`` is one of the main levers behind the kernel's throughput
(see ``benchmarks/test_kernel_throughput.py``).

One construction path per class
-------------------------------
The hot event classes have no constructor of their own.
:class:`Timeout` is built only by :meth:`Environment.timeout`,
:class:`Initialize` only by :class:`~repro.sim.process.Process`, and
:class:`~repro.sim.resources.Request` only by
:meth:`Resource.request <repro.sim.resources.Resource.request>`; each
factory creates the instance with ``Cls.__new__`` and stores every slot
itself.  Processed events are not recycled: they die like any other
object once the last reference goes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

# Scheduling priorities: lower value runs earlier at equal timestamps.
URGENT = 0
NORMAL = 1

#: Bits reserved for the event sequence number inside a schedule key,
#: which packs ``(priority << _KEY_SHIFT) | sequence``.  A simulation
#: would need ~100 years of wall-clock at current kernel throughput to
#: overflow 2**53 events, and Python ints widen anyway — ordering stays
#: correct either way.
_KEY_SHIFT = 53
_URGENT_KEY = URGENT << _KEY_SHIFT
_NORMAL_KEY = NORMAL << _KEY_SHIFT

_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Parameters
    ----------
    env:
        The environment the event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set when a failure value was retrieved or given to a process;
        #: unhandled failures are re-raised by the environment.
        self._defused: bool = False

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return "<{} {}>".format(type(self).__name__, state)

    @property
    def triggered(self) -> bool:
        """``True`` once a value has been attached to the event."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (valid only once triggered)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event triggered with."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        self._ok = True
        self._value = value
        # Zero-delay NORMAL scheduling is the dominant case; the
        # environment's trigger fast path produces the identical
        # schedule key without the delay-validation call chain.
        if priority == NORMAL:
            self.env._trigger_now(self)
        else:
            self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the
        event; if nobody waits, the environment raises it at the end of
        the step unless :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        self._ok = False
        self._value = exception
        if priority == NORMAL:
            self.env._trigger_now(self)
        else:
            self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another (triggered) event onto this one."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered: {!r}".format(self))
        self._ok = event._ok
        self._value = event._value
        self.env._trigger_now(self)

    # -- combinators -----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed delay in simulated time.

    Built only by :meth:`Environment.timeout`.
    """

    __slots__ = ("_delay",)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return "<Timeout delay={}>".format(self._delay)


class Initialize(Event):
    """Internal event used to start a new :class:`~repro.sim.process.Process`.

    Built only by the process constructor.
    """

    __slots__ = ()


class ConditionValue:
    """Ordered mapping of the events a condition has collected so far."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return "<ConditionValue {}>".format(self.todict())

    def __iter__(self):
        return iter(self.events)

    def keys(self) -> list[Event]:
        return list(self.events)

    def values(self) -> list[Any]:
        return [event._value for event in self.events]

    def todict(self) -> dict[Event, Any]:
        return {event: event._value for event in self.events}


class Condition(Event):
    """Event that triggers when a predicate over child events holds.

    Used through the ``&`` / ``|`` operators on events or through
    :meth:`Environment.all_of` / :meth:`Environment.any_of`.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list["Event"], int], bool],
        events: Iterable["Event"],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")

        # Immediately check already-processed events.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events and self._value is _PENDING:
            self.succeed(ConditionValue())

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition) and event.triggered and event._ok:
                for child in event._value.events:
                    if child not in value.events:
                        value.events.append(child)
            elif event.callbacks is None and event not in value.events:
                value.events.append(event)

    def _check(self, event: "Event") -> None:
        if self._value is not _PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    @staticmethod
    def all_events(events: list["Event"], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list["Event"], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that waits for every child event."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that waits for the first child event."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]) -> None:
        super().__init__(env, Condition.any_events, events)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]

    def __str__(self) -> str:
        return "Interrupt({!r})".format(self.cause)
