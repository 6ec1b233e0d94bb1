"""Fault injection: the fault-model zoo.

The paper's 3-state machine exists because backends really do fail
permanently, not just transiently — and its §IV-C remedy is
deliberately conservative because "it is hard to distinguish
millibottleneck from permanent failure".  The original module injected
only fail-stop crashes; this zoo widens the fault space so the
resilience layer (:mod:`repro.resilience`) can be exercised against
every transient-vs-permanent shade the distinction has:

* **fail-stop crash** — the server refuses all work, permanently or
  for a window (:class:`CrashFault`);
* **fail-slow** — the server still answers, but every CPU slice takes
  ``factor`` times longer (:class:`SlowFault`), the classic degraded
  (limping) server of the HAProxy tuning study;
* **network packet loss / added latency** — the client-to-web path
  drops a fraction of packets or gains latency for a window
  (:class:`PacketLossFault`), and balancer-to-backend links gain
  latency (:class:`LinkLatencyFault`);
* **correlated bursts** — several servers fail within a small jitter
  window of each other (:class:`CorrelatedCrashFault`), as when a rack
  or dependency dies;
* **recurring schedules** — crash or slow a server repeatedly on an
  RNG-driven schedule (:class:`RecurringFault`), the chaos-monkey mode;
* **zone outages** — every replica placed in one availability zone
  crashes together (:class:`ZoneOutageFault`), the geo-scale burst;
* **WAN brown-outs** — a zone pair's links swap onto a degraded
  latency/loss profile for a window (:class:`WanDegradationFault`).

Every fault is declarative (a frozen, picklable spec naming its target
server) so :class:`~repro.cluster.runner.ExperimentConfig` can carry a
tuple of them across process boundaries.  :meth:`FaultInjector.inject`
is the one way to schedule a fault: it resolves the spec's names
against the built system and starts one window process per target,
which waits until the fault starts, opens its window on the target's
ledger, appends a :class:`FaultRecord`, waits out the window and
closes it.  A ledger re-derives its target's attribute from the
provisioned value and the windows still open, so faults on one target
compose in any overlap and undo exactly.  All randomness comes from
the injector's seeded generator: fault schedules are RNG-stream-keyed,
never wall-clock, so the same seed gives the same fault timeline under
``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.cluster.spec import LinkProfileSpec
from repro.errors import ConfigurationError
from repro.netmodel.sockets import NetworkImpairment
from repro.tiers.base import TierServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import NTierSystem
    from repro.sim.core import Environment


# -- ground-truth records ---------------------------------------------------

@dataclass
class FaultRecord:
    """Ground truth about one fault window on one target.

    ``kind`` is ``"crash"``, ``"slow"`` (``value`` is the slowdown
    factor), ``"loss"`` (the loss fraction), ``"latency"`` (the added
    one-way latency) or ``"wan"`` (the degraded WAN latency); a crash
    has no ``value``.  Appended when the window opens, with
    ``ended_at`` still ``None``, and updated in place when it closes —
    so a run inspected mid-fault already shows the record, and a
    permanent crash keeps ``ended_at=None``.  A record reports its own
    window and value; where windows on one target overlap, the value in
    effect is their combination (see :data:`_KINDS`).
    """

    kind: str
    target: str
    value: Optional[float]
    started_at: float
    ended_at: Optional[float] = None


# -- field rules --------------------------------------------------------------
# Each rule is checked once, in the ``__post_init__`` of the spec that
# has the field; the helpers below are the rules several specs share.

def _require(condition: bool, message: str, value) -> None:
    if not condition:
        raise ConfigurationError("{} (got {!r})".format(message, value))


def _check_window(at: float, duration: Optional[float]) -> None:
    """A fault starts no earlier than time 0 and, unless permanent
    (``duration=None``), lasts a positive time."""
    _require(at >= 0.0, "cannot schedule a fault in the past", at)
    _require(duration is None or duration > 0,
             "duration must be positive", duration)


def _check_factor(factor: float) -> None:
    _require(factor > 1.0, "slowdown factor must be > 1.0", factor)


def _check_jitter(jitter: float) -> None:
    _require(jitter >= 0, "jitter must be >= 0", jitter)


# -- declarative fault specs -----------------------------------------------

@dataclass(frozen=True)
class CrashFault:
    """Fail-stop crash of ``server`` at ``at``; permanent without
    ``duration``."""

    server: str
    at: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)


@dataclass(frozen=True)
class SlowFault:
    """Degrade ``server``'s service rate by ``factor`` for a window.

    ``factor`` multiplies every CPU demand on the server's host: 3.0
    means requests take three times the CPU time, the "limping but
    alive" server that passive load counters misjudge.
    """

    server: str
    at: float
    duration: float
    factor: float = 3.0

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        _check_factor(self.factor)


@dataclass(frozen=True)
class PacketLossFault:
    """Drop ``loss`` of client packets to ``apache`` for a window.

    ``apache=None`` impairs every web server (an upstream network
    fault); ``extra_latency`` adds one-way delay to surviving packets.
    Dropped packets are retransmitted by the client's TCP stack after
    its RTO — exactly the VLRT mechanism of Fig. 4, now triggered by
    the network instead of an overflowing accept queue.
    """

    at: float
    duration: float
    loss: float = 0.01
    extra_latency: float = 0.0
    apache: Optional[str] = None

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        _require(0.0 <= self.loss < 1.0, "loss must be in [0, 1)",
                 self.loss)
        _require(self.extra_latency >= 0, "extra_latency must be >= 0",
                 self.extra_latency)


@dataclass(frozen=True)
class LinkLatencyFault:
    """Add ``extra`` seconds one-way latency to every balancer link
    toward ``server`` for a window (a congested or flapping switch on
    the AJP path)."""

    server: str
    at: float
    duration: float
    extra: float = 0.005

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        _require(self.extra > 0, "extra latency must be positive",
                 self.extra)


@dataclass(frozen=True)
class CorrelatedCrashFault:
    """Crash several servers within ``jitter`` seconds of ``at``.

    Offsets are drawn from the injector's RNG, so the burst shape is
    seed-deterministic.  Models rack/dependency failures that take out
    multiple backends at once — the scenario where routing-around
    capacity actually runs out.
    """

    servers: tuple[str, ...]
    at: float
    duration: Optional[float] = None
    jitter: float = 0.1

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        _check_jitter(self.jitter)


@dataclass(frozen=True)
class RecurringFault:
    """Crash or slow ``server`` repeatedly on an RNG-driven schedule.

    Inter-fault gaps are exponential with mean ``mean_interval``;
    each episode lasts ``duration``.  ``kind`` is ``"crash"`` or
    ``"slow"``.  Episodes stop after ``until`` (or never, if ``None``).
    """

    server: str
    kind: str = "crash"
    mean_interval: float = 5.0
    duration: float = 0.5
    factor: float = 3.0
    start: float = 0.0
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.kind in ("crash", "slow"),
                 "recurring fault kind must be 'crash' or 'slow'",
                 self.kind)
        _require(self.mean_interval > 0, "mean_interval must be positive",
                 self.mean_interval)
        _check_window(self.start, self.duration)
        if self.kind == "slow":
            _check_factor(self.factor)


@dataclass(frozen=True)
class ZoneOutageFault:
    """Correlated crash of every replica placed in ``zone``.

    The geo-scale analogue of :class:`CorrelatedCrashFault`: an
    availability-zone outage takes down *all* servers whose
    ``server.zone`` matches, across every tier at once, within
    ``jitter`` seconds of ``at``.  Only meaningful against a zoned
    topology — against a zone-free system it is a configuration error,
    not a no-op.
    """

    zone: str
    at: float
    duration: Optional[float] = None
    jitter: float = 0.1

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        _check_jitter(self.jitter)


@dataclass(frozen=True)
class WanDegradationFault:
    """Swap the ``zone_a``/``zone_b`` WAN links onto a degraded profile.

    Models a brown-out of the inter-zone backbone: for the window every
    link whose ``zone_pair`` matches carries the degraded latency /
    loss / RTO instead of its provisioned profile, then snaps back.
    Spillover traffic routed around a zone fault pays these degraded
    hops — the geo version of "the remedy path is itself impaired".
    """

    zone_a: str
    zone_b: str
    at: float
    duration: float
    latency: float = 0.25
    jitter: float = 0.02
    loss: float = 0.05
    rto: float = 0.2

    def __post_init__(self) -> None:
        _check_window(self.at, self.duration)
        self.profile()  # LinkProfileSpec checks the degraded fields

    def profile(self) -> LinkProfileSpec:
        """The degraded link profile the window swaps in."""
        return LinkProfileSpec(latency=self.latency, jitter=self.jitter,
                               loss=self.loss, rto=self.rto)


FaultSpec = Union[CrashFault, SlowFault, PacketLossFault,
                  LinkLatencyFault, CorrelatedCrashFault, RecurringFault,
                  ZoneOutageFault, WanDegradationFault]


# -- how fault windows combine on a target ------------------------------

def _latest(provisioned, values):
    return values[-1] if values else provisioned


#: Per fault kind: the target attribute, and how the values of the
#: windows open on one target combine with its provisioned value, in
#: the order they opened.  Impairments and WAN profiles have no total
#: order to pick a "worst" by, so the latest open one wins.
_KINDS = {
    "crash": ("crashed", lambda down, windows: bool(windows) or down),
    "slow": ("slowdown", lambda base, factors: reduce(mul, factors, base)),
    "latency": ("latency", lambda base, extras: reduce(add, extras, base)),
    "loss": ("impairment", _latest),
    "wan": ("profile", _latest),
}


class _Ledger:
    """The provisioned value of one target attribute and the values of
    the fault windows open on it.  Each open or close recomputes the
    attribute from those alone, so once the last window closes it is
    the provisioned value, bit for bit.  A server's ``crashed`` state
    changes only on a transition, through ``crash()`` / ``recover()``.
    """

    def __init__(self, target, kind: str) -> None:
        self.target = target
        self.attr, self.combine = _KINDS[kind]
        self.provisioned = getattr(target, self.attr)
        self.windows: dict[object, object] = {}

    def open(self, value) -> object:
        """Open a window of ``value``; returns the key that closes it."""
        key = object()
        self.windows[key] = value
        self._settle()
        return key

    def close(self, key: object) -> None:
        del self.windows[key]
        self._settle()

    def _settle(self) -> None:
        value = self.combine(self.provisioned, list(self.windows.values()))
        if self.attr != "crashed":
            setattr(self.target, self.attr, value)
        elif value != self.target.crashed:
            (self.target.crash if value else self.target.recover)()


# -- the injector -----------------------------------------------------------

class FaultInjector:
    """Schedules faults from the zoo against a running system.

    Parameters
    ----------
    env:
        Simulation environment.
    rng:
        Seeded generator driving jitter and recurring schedules;
        experiments pass a stream derived from the run's seed (see
        ``ExperimentRunner.run``).
    """

    def __init__(self, env: "Environment", *,
                 rng: np.random.Generator) -> None:
        self.env = env
        self._rng = rng
        #: Ground truth of every fault window, appended as each starts.
        self.records: list[FaultRecord] = []
        #: One ledger per ``(target, kind)`` a window has opened on.
        self._ledgers: dict[tuple[object, str], _Ledger] = {}

    def inject(self, spec: FaultSpec, system: "NTierSystem") -> None:
        """Resolve a declarative spec against ``system`` and schedule it.

        Every fault is scheduled here: each target gets one window
        process (:meth:`_window`).  Windows of any kind may overlap on
        one target; its ledger combines them.
        """
        at = getattr(spec, "at", None)
        if at is not None:
            _require(at >= self.env.now,
                     "cannot schedule a fault in the past", at)
        if isinstance(spec, CrashFault):
            server = system.server_named(spec.server)
            self.env.process(self._window(
                "crash", server, server.name, None, spec.at, spec.duration))
        elif isinstance(spec, SlowFault):
            server = system.server_named(spec.server)
            self.env.process(self._window(
                "slow", server.host, server.name, spec.factor, spec.at,
                spec.duration))
        elif isinstance(spec, PacketLossFault):
            sockets = [frontend.socket for frontend in system.frontends
                       if spec.apache is None
                       or frontend.name == spec.apache]
            if not sockets:
                raise ConfigurationError(
                    "no web server named " + repr(spec.apache))
            for socket in sockets:
                impairment = NetworkImpairment(
                    loss=spec.loss, extra_latency=spec.extra_latency,
                    rng=np.random.default_rng(self._rng.integers(2 ** 63)))
                self.env.process(self._window(
                    "loss", socket, socket.name, spec.loss, spec.at,
                    spec.duration, impairment))
        elif isinstance(spec, LinkLatencyFault):
            links = [member.link for balancer in system.balancers
                     for member in balancer.members
                     if member.name == spec.server]
            if not links:
                raise ConfigurationError(
                    "no balancer link toward " + repr(spec.server))
            for link in links:
                self.env.process(self._window(
                    "latency", link, link.name, spec.extra, spec.at,
                    spec.duration))
        elif isinstance(spec, CorrelatedCrashFault):
            self._burst([system.server_named(name)
                         for name in spec.servers], spec)
        elif isinstance(spec, RecurringFault):
            self.env.process(self._recurring(
                system.server_named(spec.server), spec))
        elif isinstance(spec, ZoneOutageFault):
            servers = system.servers_in_zone(spec.zone)
            if not servers:
                raise ConfigurationError(
                    "no servers placed in zone " + repr(spec.zone)
                    + " (zone faults need a zoned topology)")
            self._burst(servers, spec)
        elif isinstance(spec, WanDegradationFault):
            pair = tuple(sorted((spec.zone_a, spec.zone_b)))
            links = [link for link in system.wan_links
                     if link.zone_pair == pair]
            if not links:
                raise ConfigurationError(
                    "no WAN links between zones {!r} and {!r}".format(
                        spec.zone_a, spec.zone_b))
            degraded = spec.profile().runtime(name="wan.degraded")
            for link in links:
                self.env.process(self._window(
                    "wan", link, link.name, degraded.latency, spec.at,
                    spec.duration, degraded))
        else:
            raise ConfigurationError(
                "unknown fault spec: {!r}".format(spec))

    def inject_all(self, specs, system: "NTierSystem") -> None:
        """Schedule every spec in ``specs`` against ``system``."""
        for spec in specs:
            self.inject(spec, system)

    def _window(self, kind: str, target, name: str, value: Optional[float],
                at: float, duration: Optional[float], effect=None):
        """Wait until ``at``, open a window of ``effect`` (by default
        ``value``) on ``target``'s ``kind`` ledger, record it under
        ``name`` and close it ``duration`` later (never if ``None``)."""
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        ledger = self._ledgers.get((target, kind))
        if ledger is None:
            ledger = self._ledgers[target, kind] = _Ledger(target, kind)
        key = ledger.open(value if effect is None else effect)
        record = FaultRecord(kind, name, value, self.env.now)
        self.records.append(record)
        if duration is None:
            return
        yield self.env.timeout(duration)
        ledger.close(key)
        record.ended_at = self.env.now

    def _burst(self, servers: Sequence[TierServer],
               spec: Union[CorrelatedCrashFault, ZoneOutageFault]) -> None:
        """Crash every server within ``spec.jitter`` of ``spec.at``."""
        for server in servers:
            offset = (float(self._rng.uniform(0.0, spec.jitter))
                      if spec.jitter else 0.0)
            self.env.process(self._window(
                "crash", server, server.name, None, spec.at + offset,
                spec.duration))

    def _recurring(self, server: TierServer, spec: RecurringFault):
        if spec.start > self.env.now:
            yield self.env.timeout(spec.start - self.env.now)
        while True:
            gap = float(self._rng.exponential(spec.mean_interval))
            yield self.env.timeout(max(1e-6, gap))
            if spec.until is not None and self.env.now >= spec.until:
                return
            # Episodes are sequential: each ends before the next gap.
            crash = spec.kind == "crash"
            yield from self._window(
                spec.kind, server if crash else server.host, server.name,
                None if crash else spec.factor, self.env.now, spec.duration)


def fault_horizon(specs: Sequence[FaultSpec]) -> Optional[tuple[float, float]]:
    """``(start, end)`` of the union of fault windows, if bounded.

    ``None`` when the timeline has no bounded window to recover from:
    no faults at all, a permanent crash (``duration=None``), or a
    recurring fault (no ``at``).  A crash burst (correlated or zone)
    extends the end by its jitter bound, as member crashes start in
    ``[at, at + jitter]``; a WAN brown-out's ``jitter`` is latency.
    """
    starts: list[float] = []
    ends: list[float] = []
    for spec in specs:
        at = getattr(spec, "at", None)
        duration = getattr(spec, "duration", None)
        if at is None or duration is None:
            return None
        jitter = (spec.jitter if isinstance(
            spec, (CorrelatedCrashFault, ZoneOutageFault)) else 0.0)
        starts.append(at)
        ends.append(at + duration + jitter)
    if not starts:
        return None
    return min(starts), max(ends)
