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
tuple of them across process boundaries; the
:class:`FaultInjector` resolves names against the built system and
drives the schedules.  All randomness comes from the injector's seeded
generator: fault schedules are RNG-stream-keyed, never wall-clock, so
the same seed gives the same fault timeline under ``workers=1`` and
``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.cluster.spec import LinkProfileSpec
from repro.errors import ConfigurationError
from repro.netmodel.sockets import Link, LinkProfile, NetworkImpairment
from repro.tiers.base import TierServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import NTierSystem
    from repro.sim.core import Environment

_INF = float("inf")


# -- ground-truth records ---------------------------------------------------

@dataclass
class CrashRecord:
    """Ground truth about one injected crash.

    Appended when the crash *starts* (``recovered_at`` still ``None``),
    and updated in place on recovery — so a run inspected mid-crash
    already shows the record.
    """

    server: str
    crashed_at: float
    recovered_at: Optional[float] = None


@dataclass
class SlowRecord:
    """Ground truth about one fail-slow (degraded-service) window."""

    server: str
    factor: float
    started_at: float
    ended_at: Optional[float] = None


@dataclass
class NetworkFaultRecord:
    """Ground truth about one network impairment window."""

    target: str
    kind: str  # "loss" or "latency"
    magnitude: float
    started_at: float
    ended_at: Optional[float] = None


# -- field rules --------------------------------------------------------------
# Each rule lives here once: a spec checks its fields when it is built,
# and the injector method scheduling the same fault checks its
# arguments through the same helper.

def _require(condition: bool, message: str, value) -> None:
    if not condition:
        raise ConfigurationError("{} (got {!r})".format(message, value))


def _check_window(at: float, duration: Optional[float],
                  now: float = 0.0) -> None:
    """A fault starts no earlier than ``now`` and, unless permanent
    (``duration=None``), lasts a positive time."""
    _require(at >= now, "cannot schedule a fault in the past", at)
    _require(duration is None or duration > 0,
             "duration must be positive", duration)


def _check_factor(factor: float) -> None:
    _require(factor > 1.0, "slowdown factor must be > 1.0", factor)


def _check_impairment(loss: float, extra_latency: float) -> None:
    _require(0.0 <= loss < 1.0, "loss must be in [0, 1)", loss)
    _require(extra_latency >= 0, "extra_latency must be >= 0",
             extra_latency)


def _check_extra(extra: float) -> None:
    _require(extra > 0, "extra latency must be positive", extra)


def _check_jitter(jitter: float) -> None:
    _require(jitter >= 0, "jitter must be >= 0", jitter)


def _check_recurring(kind: str, mean_interval: float) -> None:
    _require(kind in ("crash", "slow"),
             "recurring fault kind must be 'crash' or 'slow'", kind)
    _require(mean_interval > 0, "mean_interval must be positive",
             mean_interval)


def _wan_profile(latency: float, jitter: float, loss: float,
                 rto: float) -> LinkProfileSpec:
    """A degraded WAN profile, checked by :class:`LinkProfileSpec`."""
    return LinkProfileSpec(latency=latency, jitter=jitter, loss=loss,
                           rto=rto)


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
        _check_impairment(self.loss, self.extra_latency)


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
        _check_extra(self.extra)


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
        _check_recurring(self.kind, self.mean_interval)
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
        _wan_profile(self.latency, self.jitter, self.loss, self.rto)


FaultSpec = Union[CrashFault, SlowFault, PacketLossFault,
                  LinkLatencyFault, CorrelatedCrashFault, RecurringFault,
                  ZoneOutageFault, WanDegradationFault]


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
        #: Crash ground truth, appended at crash time.
        self.records: list[CrashRecord] = []
        #: Fail-slow ground truth.
        self.slow_records: list[SlowRecord] = []
        #: Network impairment ground truth.
        self.net_records: list[NetworkFaultRecord] = []
        #: Scheduled crash windows per server, for overlap validation.
        self._crash_windows: dict[str, list[tuple[float, float]]] = {}

    # -- crash (fail-stop) -----------------------------------------------
    def crash_at(self, server: TierServer, at: float,
                 duration: Optional[float] = None) -> None:
        """Crash ``server`` at time ``at``.

        With ``duration`` the server recovers that many seconds later;
        without it the crash is permanent for the rest of the run.
        Overlapping crash windows on the same server are rejected —
        crashing an already-crashed server is undefined behaviour.
        """
        _check_window(at, duration, self.env.now)
        self._book_crash(server, at, _INF if duration is None
                         else at + duration)
        self.env.process(self._run_crash(server, at, duration))

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

    def _run_crash(self, server: TierServer, at: float,
                   duration: Optional[float]):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        server.crash()
        # Record at crash time so a run that ends (or is inspected)
        # mid-crash still shows the fault.
        record = CrashRecord(server.name, self.env.now)
        self.records.append(record)
        if duration is None:
            return
        yield self.env.timeout(duration)
        server.recover()
        record.recovered_at = self.env.now

    # -- fail-slow (degraded service rate) -------------------------------
    def slow_at(self, server: TierServer, at: float, duration: float,
                factor: float = 3.0) -> None:
        """Multiply ``server``'s CPU demand by ``factor`` for a window."""
        _check_window(at, duration, self.env.now)
        _check_factor(factor)
        self.env.process(self._run_slow(server, at, duration, factor))

    def _run_slow(self, server: TierServer, at: float, duration: float,
                  factor: float):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        host = server.host
        host.slowdown *= factor
        record = SlowRecord(server.name, factor, self.env.now)
        self.slow_records.append(record)
        yield self.env.timeout(duration)
        host.slowdown /= factor
        record.ended_at = self.env.now

    # -- network impairments ---------------------------------------------
    def impair_socket_at(self, socket, at: float, duration: float,
                         loss: float = 0.01,
                         extra_latency: float = 0.0) -> None:
        """Drop ``loss`` of offers to ``socket`` (and delay survivors)
        for a window."""
        _check_window(at, duration, self.env.now)
        _check_impairment(loss, extra_latency)
        impairment = NetworkImpairment(
            loss=loss, extra_latency=extra_latency,
            rng=np.random.default_rng(self._rng.integers(2 ** 63)))
        self.env.process(
            self._run_impairment(socket, at, duration, impairment))

    def _run_impairment(self, socket, at: float, duration: float,
                        impairment: NetworkImpairment):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        record = NetworkFaultRecord(socket.name, "loss", impairment.loss,
                                    self.env.now)
        self.net_records.append(record)
        socket.impairment = impairment
        yield self.env.timeout(duration)
        socket.impairment = None
        record.ended_at = self.env.now

    def add_link_latency_at(self, link: Link, at: float, duration: float,
                            extra: float) -> None:
        """Add ``extra`` one-way latency to ``link`` for a window."""
        _check_window(at, duration, self.env.now)
        _check_extra(extra)
        self.env.process(self._run_link_latency(link, at, duration, extra))

    def _run_link_latency(self, link: Link, at: float, duration: float,
                          extra: float):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        record = NetworkFaultRecord(link.name, "latency", extra,
                                    self.env.now)
        self.net_records.append(record)
        link.latency += extra
        yield self.env.timeout(duration)
        link.latency -= extra
        record.ended_at = self.env.now

    def degrade_wan_at(self, link: Link, at: float, duration: float,
                       profile: LinkProfile) -> None:
        """Swap ``link`` onto ``profile`` for a window, then restore."""
        _check_window(at, duration, self.env.now)
        if link.profile is None:
            raise ConfigurationError(
                "link {} has no WAN profile to degrade".format(link.name))
        self.env.process(
            self._run_wan_degradation(link, at, duration, profile))

    def _run_wan_degradation(self, link: Link, at: float, duration: float,
                             profile: LinkProfile):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        record = NetworkFaultRecord(link.name, "wan", profile.latency,
                                    self.env.now)
        self.net_records.append(record)
        healthy = link.profile
        link.profile = profile
        yield self.env.timeout(duration)
        # Restoring the *provisioned* profile is the point: overlapping
        # degradations of one link are rejected by scenario construction
        # (one WanDegradationFault per pair), so no concurrent writer
        # exists to clobber.
        link.profile = healthy  # statan: ignore[RACE001]
        record.ended_at = self.env.now

    # -- correlated bursts ------------------------------------------------
    def correlated_crash(self, servers, at: float,
                         duration: Optional[float] = None,
                         jitter: float = 0.1) -> None:
        """Crash every server in ``servers`` within ``jitter`` of ``at``."""
        _check_jitter(jitter)
        for server in servers:
            offset = float(self._rng.uniform(0.0, jitter)) if jitter else 0.0
            self.crash_at(server, at + offset, duration)

    # -- recurring schedules ----------------------------------------------
    def recurring(self, server: TierServer, kind: str = "crash",
                  mean_interval: float = 5.0, duration: float = 0.5,
                  factor: float = 3.0, start: float = 0.0,
                  until: Optional[float] = None) -> None:
        """Repeat a transient fault on an RNG-driven schedule.

        A crash schedule books ``[start, until + duration)`` — without
        ``until``, ``[start, inf)`` — as one crash window, so no other
        crash of ``server`` may overlap it, whichever is injected
        first.
        """
        _check_recurring(kind, mean_interval)
        _check_window(start, duration)
        if kind == "crash":
            self._book_crash(server, start, _INF if until is None
                             else until + duration)
        else:
            _check_factor(factor)
        self.env.process(self._run_recurring(
            server, kind, mean_interval, duration, factor, start, until))

    def _run_recurring(self, server: TierServer, kind: str,
                       mean_interval: float, duration: float,
                       factor: float, start: float,
                       until: Optional[float]):
        if start > self.env.now:
            yield self.env.timeout(start - self.env.now)
        while True:
            gap = float(self._rng.exponential(mean_interval))
            yield self.env.timeout(max(1e-6, gap))
            if until is not None and self.env.now >= until:
                return
            if kind == "crash":
                # Episodes are sequential by construction, and
                # recurring() booked the whole schedule's window.
                server.crash()
                record = CrashRecord(server.name, self.env.now)
                self.records.append(record)
                yield self.env.timeout(duration)
                server.recover()
                record.recovered_at = self.env.now
            else:
                host = server.host
                host.slowdown *= factor
                record = SlowRecord(server.name, factor, self.env.now)
                self.slow_records.append(record)
                yield self.env.timeout(duration)
                host.slowdown /= factor
                record.ended_at = self.env.now

    # -- declarative entry point ------------------------------------------
    def inject(self, spec: FaultSpec, system: "NTierSystem") -> None:
        """Resolve a declarative spec against ``system`` and schedule it."""
        if isinstance(spec, CrashFault):
            self.crash_at(system.server_named(spec.server), spec.at,
                          spec.duration)
        elif isinstance(spec, SlowFault):
            self.slow_at(system.server_named(spec.server), spec.at,
                         spec.duration, spec.factor)
        elif isinstance(spec, PacketLossFault):
            sockets = [frontend.socket for frontend in system.frontends
                       if spec.apache is None
                       or frontend.name == spec.apache]
            if not sockets:
                raise ConfigurationError(
                    "no web server named " + repr(spec.apache))
            for socket in sockets:
                self.impair_socket_at(socket, spec.at, spec.duration,
                                      spec.loss, spec.extra_latency)
        elif isinstance(spec, LinkLatencyFault):
            links = [member.link for balancer in system.balancers
                     for member in balancer.members
                     if member.name == spec.server]
            if not links:
                raise ConfigurationError(
                    "no balancer link toward " + repr(spec.server))
            for link in links:
                self.add_link_latency_at(link, spec.at, spec.duration,
                                         spec.extra)
        elif isinstance(spec, CorrelatedCrashFault):
            servers = [system.server_named(name) for name in spec.servers]
            self.correlated_crash(servers, spec.at, spec.duration,
                                  spec.jitter)
        elif isinstance(spec, RecurringFault):
            self.recurring(system.server_named(spec.server), spec.kind,
                           spec.mean_interval, spec.duration, spec.factor,
                           spec.start, spec.until)
        elif isinstance(spec, ZoneOutageFault):
            servers = system.servers_in_zone(spec.zone)
            if not servers:
                raise ConfigurationError(
                    "no servers placed in zone " + repr(spec.zone)
                    + " (zone faults need a zoned topology)")
            self.correlated_crash(servers, spec.at, spec.duration,
                                  spec.jitter)
        elif isinstance(spec, WanDegradationFault):
            pair = tuple(sorted((spec.zone_a, spec.zone_b)))
            links = [link for link in system.wan_links
                     if link.zone_pair == pair]
            if not links:
                raise ConfigurationError(
                    "no WAN links between zones {!r} and {!r}".format(
                        spec.zone_a, spec.zone_b))
            degraded = _wan_profile(
                spec.latency, spec.jitter, spec.loss,
                spec.rto).runtime(name="wan.degraded")
            for link in links:
                self.degrade_wan_at(link, spec.at, spec.duration, degraded)
        else:
            raise ConfigurationError(
                "unknown fault spec: {!r}".format(spec))

    def inject_all(self, specs, system: "NTierSystem") -> None:
        """Schedule every spec in ``specs`` against ``system``."""
        for spec in specs:
            self.inject(spec, system)


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
