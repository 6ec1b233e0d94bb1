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
which waits until the fault starts, applies it, appends a
:class:`FaultRecord`, waits out the window and undoes it.  All
randomness comes from the injector's seeded generator: fault schedules
are RNG-stream-keyed, never wall-clock, so the same seed gives the
same fault timeline under ``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.cluster.spec import LinkProfileSpec
from repro.errors import ConfigurationError
from repro.netmodel.sockets import NetworkImpairment
from repro.tiers.base import TierServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import NTierSystem
    from repro.sim.core import Environment

_INF = float("inf")


# -- ground-truth records ---------------------------------------------------

@dataclass
class FaultRecord:
    """Ground truth about one fault window on one target.

    ``kind`` is ``"crash"``, ``"slow"`` (``value`` is the slowdown
    factor), ``"loss"`` (the loss fraction), ``"latency"`` (the added
    one-way latency) or ``"wan"`` (the degraded WAN latency); a crash
    has no ``value``.  Appended when the fault is applied, with
    ``ended_at`` still ``None``, and updated in place when it is undone
    — so a run inspected mid-fault already shows the record, and a
    permanent crash keeps ``ended_at=None``.
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


# -- what a fault does to its target -----------------------------------
# Each function applies one fault and returns the function that undoes
# it; :meth:`FaultInjector._window` calls both, a window apart.

def _crash(server: TierServer):
    server.crash()
    return server.recover


def _slow(server: TierServer, factor: float):
    host = server.host
    host.slowdown *= factor
    return lambda: setattr(host, "slowdown", host.slowdown / factor)


def _impair(socket, impairment: NetworkImpairment):
    socket.impairment = impairment
    return lambda: setattr(socket, "impairment", None)


def _delay(link, extra: float):
    link.latency += extra
    return lambda: setattr(link, "latency", link.latency - extra)


def _degrade(link, profile):
    # Undoing restores the profile the link carried when the window
    # opened: its provisioned one, as long as degradations of one zone
    # pair do not overlap.
    healthy = link.profile
    link.profile = profile
    return lambda: setattr(link, "profile", healthy)


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
        #: Scheduled crash windows per server, for overlap validation.
        self._crash_windows: dict[str, list[tuple[float, float]]] = {}

    def inject(self, spec: FaultSpec, system: "NTierSystem") -> None:
        """Resolve a declarative spec against ``system`` and schedule it.

        Every fault is scheduled here: each target gets one window
        process (:meth:`_window`).  Crashes of one server may not
        overlap — crashing an already-crashed server is undefined
        behaviour — so each crash books its window first.
        """
        at = getattr(spec, "at", None)
        if at is not None:
            _require(at >= self.env.now,
                     "cannot schedule a fault in the past", at)
        if isinstance(spec, CrashFault):
            self._schedule_crash(system.server_named(spec.server),
                                 spec.at, spec.duration)
        elif isinstance(spec, SlowFault):
            server = system.server_named(spec.server)
            self.env.process(self._window(
                "slow", server.name, spec.factor, spec.at, spec.duration,
                _slow, server, spec.factor))
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
                    "loss", socket.name, spec.loss, spec.at, spec.duration,
                    _impair, socket, impairment))
        elif isinstance(spec, LinkLatencyFault):
            links = [member.link for balancer in system.balancers
                     for member in balancer.members
                     if member.name == spec.server]
            if not links:
                raise ConfigurationError(
                    "no balancer link toward " + repr(spec.server))
            for link in links:
                self.env.process(self._window(
                    "latency", link.name, spec.extra, spec.at,
                    spec.duration, _delay, link, spec.extra))
        elif isinstance(spec, CorrelatedCrashFault):
            self._burst([system.server_named(name)
                         for name in spec.servers], spec)
        elif isinstance(spec, RecurringFault):
            server = system.server_named(spec.server)
            if spec.kind == "crash":
                # One window for the whole schedule, so no other crash
                # of the server may overlap it, whichever comes first.
                self._book_crash(server, spec.start, _INF
                                 if spec.until is None
                                 else spec.until + spec.duration)
            self.env.process(self._recurring(server, spec))
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
                    "wan", link.name, degraded.latency, spec.at,
                    spec.duration, _degrade, link, degraded))
        else:
            raise ConfigurationError(
                "unknown fault spec: {!r}".format(spec))

    def inject_all(self, specs, system: "NTierSystem") -> None:
        """Schedule every spec in ``specs`` against ``system``."""
        for spec in specs:
            self.inject(spec, system)

    def _window(self, kind: str, target: str, value: Optional[float],
                at: float, duration: Optional[float], apply, *args):
        """Wait until ``at``, apply the fault (``apply(*args)``) and
        record it, then undo it ``duration`` later (never, when
        ``duration`` is ``None``)."""
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        undo = apply(*args)
        record = FaultRecord(kind, target, value, self.env.now)
        self.records.append(record)
        if duration is None:
            return
        yield self.env.timeout(duration)
        undo()
        record.ended_at = self.env.now

    def _schedule_crash(self, server: TierServer, at: float,
                        duration: Optional[float]) -> None:
        self._book_crash(server, at, _INF if duration is None
                         else at + duration)
        self.env.process(self._window("crash", server.name, None, at,
                                      duration, _crash, server))

    def _book_crash(self, server: TierServer, start: float,
                    end: float) -> None:
        """Reserve ``[start, end)`` for crashes of ``server``, unless
        it overlaps a window already booked."""
        windows = self._crash_windows.setdefault(server.name, [])
        for booked_start, booked_end in windows:
            if start < booked_end and end > booked_start:
                raise ConfigurationError(
                    "overlapping crash on {}: [{}, {}) collides with "
                    "[{}, {})".format(server.name, start, end,
                                      booked_start, booked_end))
        windows.append((start, end))

    def _burst(self, servers: Sequence[TierServer],
               spec: Union[CorrelatedCrashFault, ZoneOutageFault]) -> None:
        """Crash every server within ``spec.jitter`` of ``spec.at``."""
        for server in servers:
            offset = (float(self._rng.uniform(0.0, spec.jitter))
                      if spec.jitter else 0.0)
            self._schedule_crash(server, spec.at + offset, spec.duration)

    def _recurring(self, server: TierServer, spec: RecurringFault):
        if spec.start > self.env.now:
            yield self.env.timeout(spec.start - self.env.now)
        while True:
            gap = float(self._rng.exponential(spec.mean_interval))
            yield self.env.timeout(max(1e-6, gap))
            if spec.until is not None and self.env.now >= spec.until:
                return
            # Episodes are sequential: each ends before the next gap.
            if spec.kind == "crash":
                yield from self._window("crash", server.name, None,
                                        self.env.now, spec.duration,
                                        _crash, server)
            else:
                yield from self._window("slow", server.name, spec.factor,
                                        self.env.now, spec.duration,
                                        _slow, server, spec.factor)


def fault_horizon(specs: Sequence[FaultSpec]) -> Optional[tuple[float, float]]:
    """``(start, end)`` of the union of fault windows, if bounded.

    ``None`` when the timeline has no bounded window to recover from:
    no faults at all, a permanent crash (``duration=None``), or a
    recurring fault (no ``at``).  Correlated crashes extend the end by
    their jitter bound, since member crash times are drawn in
    ``[at, at + jitter]``.
    """
    starts: list[float] = []
    ends: list[float] = []
    for spec in specs:
        at = getattr(spec, "at", None)
        duration = getattr(spec, "duration", None)
        if at is None or duration is None:
            return None
        jitter = getattr(spec, "jitter", 0.0) or 0.0
        starts.append(at)
        ends.append(at + duration + jitter)
    if not starts:
        return None
    return min(starts), max(ends)
