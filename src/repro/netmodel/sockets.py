"""Listen sockets: finite accept queues that drop on overflow.

A :class:`ListenSocket` is the kernel-side accept queue of a server.
Crucially, the kernel keeps accepting into this queue even while the
*application* is frozen by a millibottleneck — which is why a stalled
Tomcat silently absorbs requests instead of refusing them, and why the
web tier (whose own queue eventually overflows) is where packets die.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.events import Event
from repro.sim.queues import DropQueue

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.sim.core import Environment


class NetworkImpairment:
    """A lossy / slow network path in front of a listen socket.

    Installed on :attr:`ListenSocket.impairment` by the fault injector
    for the duration of a network fault window and consulted by
    :class:`~repro.netmodel.tcp.TcpSender` before each send: a drawn
    drop makes the packet vanish in the network (the client's TCP
    stack retransmits after its RTO, exactly as with an accept-queue
    overflow), and ``extra_latency`` delays surviving packets.

    Draw order is event order, which is deterministic for a fixed
    seed, so impaired runs stay reproducible.
    """

    __slots__ = ("loss", "extra_latency", "_rng", "packets_lost")

    def __init__(self, loss: float, extra_latency: float,
                 rng: "np.random.Generator") -> None:
        self.loss = loss
        self.extra_latency = extra_latency
        self._rng = rng
        #: Packets this impairment made vanish.
        self.packets_lost = 0

    def drops(self) -> bool:
        """Whether the next packet is lost in the network."""
        if self.loss > 0.0 and float(self._rng.random()) < self.loss:
            self.packets_lost += 1
            return True
        return False


class ListenSocket:
    """Named accept queue with overflow drops and a length timeline."""

    def __init__(self, env: "Environment", backlog: int,
                 name: str = "socket",
                 on_drop: Optional[Callable[[object], None]] = None) -> None:
        self.env = env
        self.name = name
        self._user_on_drop = on_drop
        self._queue = DropQueue(env, capacity=backlog, on_drop=self._dropped)
        #: (time, item) drop log for analysis.
        self.drop_log: list[tuple[float, object]] = []
        #: Optional network fault in front of this socket, installed by
        #: the fault injector; ``None`` (the default) costs nothing.
        self.impairment: Optional[NetworkImpairment] = None
        #: While True the kernel refuses every packet (host down, not
        #: just application frozen) — set by zone-outage faults on
        #: frontends; the client's TCP stack sees the same silence as
        #: an accept-queue overflow and retransmits on its RTO.
        self.refusing = False
        #: Packets refused while the host was down.
        self.refused = 0

    def _dropped(self, item: object) -> None:
        self.drop_log.append((self.env.now, item))
        if self._user_on_drop is not None:
            self._user_on_drop(item)

    # -- data path ---------------------------------------------------------
    def offer(self, item: object) -> bool:
        """Non-blocking enqueue; ``False`` means the packet was dropped."""
        if self.refusing:
            self.refused += 1
            self._dropped(item)
            return False
        return self._queue.offer(item)

    def accept(self):
        """Event that triggers with the oldest queued item."""
        return self._queue.get()

    # -- observability -------------------------------------------------------
    @property
    def backlog(self) -> int:
        return self._queue.capacity

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def dropped(self) -> int:
        return self._queue.dropped + self.refused

    @property
    def accepted(self) -> int:
        return self._queue.accepted

    @property
    def peak_length(self) -> int:
        return self._queue.peak_length

    def __repr__(self) -> str:
        return "<ListenSocket {} {}/{} dropped={}>".format(
            self.name, self.queue_length, self.backlog, self.dropped)


class LinkProfile:
    """Behaviour of one network path: latency distribution, loss, bandwidth.

    The implicit intra-host link of earlier revisions is the degenerate
    profile (sub-millisecond latency, no jitter, no loss, no bandwidth
    cap).  A WAN profile makes a cross-zone hop pay real RTT plus
    jittered propagation, loses frames with probability ``loss`` (each
    loss costs one link-layer retransmission clocked by the profile's
    own ``rto``), and charges serialization delay ``frame_bytes /
    bandwidth`` when a bandwidth cap is set.
    """

    __slots__ = ("latency", "jitter", "loss", "bandwidth", "rto",
                 "frame_bytes", "name")

    #: Link-layer retransmissions before the frame is delivered anyway
    #: (a real path is lossy, not a void; this also bounds event count).
    MAX_RETRANSMITS = 8

    def __init__(self, latency: float, jitter: float = 0.0,
                 loss: float = 0.0, bandwidth: Optional[float] = None,
                 rto: float = 0.2, frame_bytes: float = 8192.0,
                 name: str = "wan") -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if rto <= 0:
            raise ValueError("rto must be positive")
        self.latency = latency
        self.jitter = jitter
        self.loss = loss
        self.bandwidth = bandwidth
        self.rto = rto
        self.frame_bytes = frame_bytes
        self.name = name

    def one_way(self, rng: "np.random.Generator | None") -> float:
        """One jittered traversal time (no loss applied)."""
        delay = self.latency
        if self.jitter > 0.0 and rng is not None:
            delay += self.jitter * float(rng.random())
        if self.bandwidth is not None:
            delay += self.frame_bytes / self.bandwidth
        return delay

    def __repr__(self) -> str:
        return "<LinkProfile {} {:.1f} ms loss={:.2%}>".format(
            self.name, self.latency * 1000, self.loss)


class Link:
    """A network hop with fixed one-way latency.

    The paper's testbed uses a 1 Gbps LAN; propagation is microseconds
    and never the bottleneck, but modelling it keeps event ordering
    honest (a reply cannot arrive in the same instant it was sent).

    With a :class:`LinkProfile` attached (``profile=``), the link is a
    WAN hop: :meth:`transit` pays jittered RTT, serialization delay and
    loss-driven retransmissions.  ``profile=None`` (every pre-existing
    call site) keeps the exact legacy :meth:`delay` behaviour — no
    extra events, no RNG draws — so zone-free golden traces are
    byte-identical.
    """

    def __init__(self, env: "Environment", latency: float = 0.0002,
                 name: str = "link",
                 profile: Optional[LinkProfile] = None,
                 rng: "np.random.Generator | None" = None,
                 zone_pair: Optional[tuple[str, str]] = None) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.env = env
        self.latency = latency
        self.name = name
        self.messages = 0
        #: WAN behaviour; ``None`` = intra-zone (legacy fixed latency).
        self.profile = profile
        #: Seeded per-link stream for jitter/loss draws; only consulted
        #: when a profile is attached.
        self.rng = rng
        #: ``(zone_a, zone_b)`` for cross-zone links; lets the fault
        #: injector find every link on a degraded zone pair.
        self.zone_pair = zone_pair
        #: Frames lost on this link (each cost one profile-RTO wait).
        self.wan_retransmits = 0

    def delay(self):
        """Event representing one traversal of the link."""
        self.messages += 1
        return self.env.timeout(self.latency)

    def transit(self, item: object = None):
        """Process generator: one traversal under the attached profile.

        Falls back to a bare :meth:`delay` when no profile is set, so
        call sites may use ``yield from link.transit(req)`` uniformly.
        Lost frames wait out the *profile's* RTO (link-layer clock,
        distinct from the client's 1 s TCP RTO) and retransmit; the
        wait is traced as ``tcp.retransmit_wait`` nested inside a
        ``wan.transit`` span so the critical-path explainer can split
        WAN propagation from loss-induced stalls.
        """
        profile = self.profile
        if profile is None:
            yield self.delay()
            return
        env = self.env
        tracer = env.tracer
        request_id = (getattr(item, "request_id", None)
                      if tracer is not None else None)
        span = None
        if request_id is not None:
            span = tracer.start(request_id, "wan.transit", link=self.name)
        try:
            rng = self.rng
            for attempt in range(profile.MAX_RETRANSMITS + 1):
                self.messages += 1
                yield env.timeout(profile.one_way(rng))
                if (profile.loss <= 0.0 or rng is None
                        or attempt == profile.MAX_RETRANSMITS
                        or float(rng.random()) >= profile.loss):
                    return
                self.wan_retransmits += 1
                wait = profile.rto
                if request_id is None:
                    yield env.timeout(wait)
                else:
                    rspan = tracer.start(request_id, "tcp.retransmit_wait",
                                         attempt=attempt + 1, rto=wait,
                                         link=self.name)
                    try:
                        yield env.timeout(wait)
                    finally:
                        tracer.finish(rspan)
        finally:
            if span is not None:
                tracer.finish(span)

    def round_trip(self, server, item):
        """Process generator: carry ``item`` to ``server`` and back.

        The one request hop of every tier boundary: cross the link
        (:meth:`delay` on a LAN link, :meth:`transit` on a WAN link),
        hand ``item`` to ``server.submit`` with a fresh reply event,
        wait for the reply and cross back.
        """
        reply = Event(self.env)
        if self.profile is None:
            yield self.delay()
            server.submit(item, reply)
            yield reply
            yield self.delay()
        else:
            yield from self.transit(item)
            server.submit(item, reply)
            yield reply
            yield from self.transit(item)

    def __repr__(self) -> str:
        return "<Link {} {:.3f} ms>".format(self.name, self.latency * 1000)
