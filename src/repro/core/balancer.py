"""The two-level mod_jk load balancer (§II-A).

Upper level: the *policy* ranks backends by lb_value.  Lower level: the
*mechanism* (``get_endpoint``) obtains a connection to the chosen
candidate.  One :class:`LoadBalancer` instance runs inside each Apache;
the 3-state member lifecycle, per-backend connection pools, dispatch
traces and lb_value traces all live here.

:class:`DirectDispatcher` is the degenerate no-balancer configuration
used by the paper's §III-B single-node experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.member import DEFAULT_POOL_SIZE, BalancerMember
from repro.core.mechanism import GetEndpointMechanism
from repro.core.policies import Policy
from repro.core.states import MemberState, StateConfig
from repro.errors import ConfigurationError, NoCandidateError
from repro.metrics.windows import PAPER_WINDOW, WindowedCounter
from repro.netmodel.sockets import Link
from repro.sim.monitor import TraceLog
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.tiers.base import TierServer


#: Pause after a failed endpoint acquisition (or an open breaker)
#: before re-ranking candidates: it models the worker thread bouncing
#: back through the scheduler, and keeps an immediate-failure mechanism
#: from spinning in zero simulated time.
RETRY_PAUSE = 0.002


class LoadBalancer:
    """One Apache's view of the application tier."""

    def __init__(self, env: "Environment", name: str,
                 backends: Sequence["TierServer"],
                 policy: Policy,
                 mechanism: GetEndpointMechanism,
                 rng: np.random.Generator,
                 pool_size: int = DEFAULT_POOL_SIZE,
                 trace: bool = True,
                 state_config: StateConfig | None = None,
                 weights: Optional[Sequence[float]] = None,
                 link_factory: Optional[Callable[[object], Link]] = None
                 ) -> None:
        if not backends:
            raise ConfigurationError("balancer needs at least one backend")
        if pool_size < 1:
            raise ConfigurationError("pool_size must be >= 1")
        if weights is not None:
            if len(weights) != len(backends):
                raise ConfigurationError(
                    "need one weight per backend ({} != {})".format(
                        len(weights), len(backends)))
            if any(w <= 0 for w in weights):
                raise ConfigurationError("member weights must be positive")
        self.env = env
        self.name = name
        self.policy = policy
        self.mechanism = mechanism
        self._rng = rng
        # Kept for members added after construction (autoscaling).
        self._pool_size = pool_size
        self._trace = trace
        self._state_config = state_config
        #: Builds the member link for a backend; ``None`` keeps the
        #: legacy fixed-latency intra-cluster link.  The topology
        #: builder passes one for zoned systems so cross-zone members
        #: get WAN-profiled links.
        self._link_factory = link_factory
        self.members = [
            BalancerMember(
                env, server, index,
                pool_size=pool_size,
                state_config=state_config,
                link=self._make_link(server),
                trace=trace,
            )
            for index, server in enumerate(backends)
        ]
        #: (time, backend-name) per successful dispatch (Figs. 6c/9b/13b).
        self.dispatch_trace: Optional[TraceLog] = (
            TraceLog(env, name + ".dispatch") if trace else None)
        #: (time, backend-name) per *pick* — including picks whose
        #: worker then blocks inside get_endpoint.  During phase 2 the
        #: pick trace shows the full funnel onto the stalled member.
        self.pick_trace: Optional[TraceLog] = (
            TraceLog(env, name + ".pick") if trace else None)
        self.dispatches = 0
        self.endpoint_failures = 0
        #: Members removed by scale-down; kept for accounting (their
        #: dispatch counts stay part of the balancer's totals).
        self.retired_members: list[BalancerMember] = []
        #: Monotonic member index — unique across add/retire churn.
        self._member_serial = len(self.members)
        #: Whether members carry circuit breakers (see install_breakers).
        self._breaker_gate = False
        self._breaker_factory: Optional[Callable[[], object]] = None
        self.breaker_rejections = 0
        #: Fast-path flag: while every member is Available, ``_pick``
        #: skips the per-member eligibility scan entirely — the O(N)
        #: filter per dispatch is the scan cliff at large member
        #: counts.  Members notify on every state transition (rare:
        #: transitions only happen around endpoint failures/recoveries)
        #: and the flag is recomputed then.
        self._all_available = True
        for member in self.members:
            member.on_state_change = self._member_state_changed
        if weights is not None:
            for member, weight in zip(self.members, weights):
                member.weight = float(weight)
        # Last step of construction: the policy may start its probe
        # pool here (classic policies no-op, keeping them zero-event).
        self.policy.attach(self)

    def _make_link(self, server) -> Link:
        if self._link_factory is not None:
            return self._link_factory(server)
        return Link(self.env, name="{}->{}".format(self.name, server.name))

    def _member_state_changed(self, member: BalancerMember) -> None:
        self._all_available = all(
            m.state is MemberState.AVAILABLE for m in self.members)
        self.policy.on_member_state(member)

    # -- membership (autoscaling) ---------------------------------------------
    def add_backend(self, server) -> None:
        """Join ``server`` to the rotation, cold.

        The new member models a freshly provisioned backend: no
        established AJP connections, so its first requests pay the
        connection handshake (which needs the server responsive) like a
        real just-booted replica.  When the balancer is breaker-gated,
        the new member gets its own breaker from the factory recorded
        by :meth:`install_breakers`.
        """
        member = BalancerMember(
            self.env, server, self._member_serial,
            pool_size=self._pool_size,
            state_config=self._state_config,
            link=self._make_link(server),
            trace=self._trace,
            preconnect=False,
        )
        self._member_serial += 1
        member.on_state_change = self._member_state_changed
        if self._breaker_gate:
            if self._breaker_factory is None:
                raise ConfigurationError(
                    "{} is breaker-gated but has no breaker factory; "
                    "pass factory= to install_breakers".format(self.name))
            member.breaker = self._breaker_factory()
        self.members.append(member)
        self._member_state_changed(member)
        self.policy.on_member_added(member)

    def remove_backend(self, server) -> None:
        """Take ``server``'s member out of the rotation.

        The member moves to :attr:`retired_members` so completed-work
        accounting (and in-flight requests holding a reference) stay
        intact; it simply stops being a dispatch candidate.
        """
        for position, member in enumerate(self.members):
            if member.server is server:
                break
        else:
            raise ConfigurationError(
                "{} has no member for {}".format(self.name, server.name))
        if len(self.members) == 1:
            raise ConfigurationError(
                "cannot retire the last member of " + self.name)
        self.members.pop(position)
        self.retired_members.append(member)
        self._member_state_changed(member)
        self.policy.on_member_removed(member)

    # -- resilience wiring ----------------------------------------------------
    def install_breakers(self, breakers: Sequence,
                         factory: Optional[Callable[[], object]] = None
                         ) -> None:
        """Attach one circuit breaker per member and gate dispatch on them.

        ``breakers`` must align with :attr:`members`.  The mechanism is
        wrapped so every endpoint acquisition reports its outcome to
        the member's breaker; candidate ranking skips members whose
        breaker is open (unless every breaker is), and dispatch rejects
        through :meth:`~repro.resilience.breaker.CircuitBreaker.allow`
        without touching the 3-state machine.
        """
        from repro.core.mechanism import BreakerGuardedMechanism

        if len(breakers) != len(self.members):
            raise ConfigurationError(
                "need one breaker per member ({} != {})".format(
                    len(breakers), len(self.members)))
        for member, breaker in zip(self.members, breakers):
            member.breaker = breaker
        self.mechanism = BreakerGuardedMechanism(self.mechanism)
        self._breaker_gate = True
        self._breaker_factory = factory

    # -- candidate selection --------------------------------------------------
    def _pick(self, request: Optional[Request] = None
              ) -> Optional[BalancerMember]:
        """Choose a candidate, honouring the 3-state machine.

        Available (and recheck-eligible Busy / recovery-eligible Error)
        members compete via the policy; if none qualifies, any
        non-Error member may be retried; if all members are Error,
        ``None`` signals NoCandidate.
        """
        if self._all_available and not self._breaker_gate:
            # Every member is Available, so the eligibility filter
            # would return all of them: hand the member list to the
            # policy as-is (policies only read the sequence).
            return self.policy.select(self.members, self._rng, request)
        now = self.env.now
        eligible = [m for m in self.members if m.eligible(now)]
        if self._breaker_gate and eligible:
            admitted = [m for m in eligible if m.breaker.admits(now)]
            if admitted:
                eligible = admitted
            # else fail open: with every breaker open, the gate yields
            # to the 3-state machine rather than blacking out the
            # cluster; allow() still meters trials on dispatch.
        if not eligible:
            eligible = [m for m in self.members
                        if m.state is not MemberState.ERROR]
            if not eligible:
                return None
        return self.policy.select(eligible, self._rng, request)

    # -- dispatch ---------------------------------------------------------
    def dispatch(self, request: Request):
        """Process generator: forward ``request``, return when answered.

        Raises :class:`NoCandidateError` when every backend is Error.
        """
        tracer = self.env.tracer
        span = (tracer.start(request.request_id, "balancer.dispatch",
                             balancer=self.name)
                if tracer is not None else None)
        try:
            while True:
                if request.cancelled:
                    # A hedging race this request belonged to is already
                    # decided; stop instead of re-entering the scheduler.
                    if tracer is not None:
                        tracer.finish(span, outcome="cancelled")
                    return request  # statan: ignore[PROC003] -- process value
                member = self._pick(request)
                if member is None:
                    raise NoCandidateError(
                        "{}: all backends in Error state".format(self.name))
                breaker = member.breaker
                if breaker is not None and not breaker.allow():
                    # Open breaker: instant rejection with no
                    # state-machine penalty — the breaker is already
                    # doing the excluding, and mark_busy() here would
                    # escalate a member toward Error merely for being
                    # breaker-open.
                    self.breaker_rejections += 1
                    if tracer is None:
                        yield self.env.timeout(RETRY_PAUSE)
                    else:
                        pause = tracer.start(request.request_id,
                                             "balancer.breaker_pause",
                                             member=member.name)
                        yield self.env.timeout(RETRY_PAUSE)
                        tracer.finish(pause)
                    continue
                self.policy.on_pick(member, request)
                if self.pick_trace is not None:
                    self.pick_trace.log(member.name)
                if tracer is None:
                    endpoint = yield from self.mechanism.get_endpoint(
                        member)
                else:
                    # The decision span: which member the policy chose,
                    # and how long the worker then waited for one of
                    # its endpoints (the §IV-B funnel, mod_jk's
                    # cache_acquire_timeout poll loop).
                    wait = tracer.start(request.request_id,
                                        "balancer.endpoint_wait",
                                        member=member.name)
                    endpoint = yield from self.mechanism.get_endpoint(
                        member)
                    tracer.finish(wait, acquired=endpoint is not None)
                if endpoint is None:
                    # §IV-A: failing to return an endpoint moves the
                    # member toward Busy (and eventually Error).
                    self.policy.on_pick_abandoned(member, request)
                    member.mark_busy()
                    self.endpoint_failures += 1
                    if tracer is None:
                        yield self.env.timeout(RETRY_PAUSE)
                    else:
                        pause = tracer.start(request.request_id,
                                             "balancer.retry_pause",
                                             member=member.name)
                        yield self.env.timeout(RETRY_PAUSE)
                        tracer.finish(pause)
                    continue
                yield from self._send(member, endpoint, request)
                if tracer is not None:
                    tracer.finish(span, outcome="dispatched",
                                  member=member.name)
                return request  # statan: ignore[PROC003] -- process value
        finally:
            # Normally closed above; an interrupt, a NoCandidateError
            # or a fault unwinding the worker closes it here instead.
            if tracer is not None:
                tracer.finish(span, outcome="error")

    def _send(self, member: BalancerMember, endpoint, request: Request):
        # A successful acquisition is proof of life.
        member.mark_available()
        member.dispatched += 1
        member.inflight += 1
        self.dispatches += 1
        request.served_by = member.name
        request.dispatched_at = self.env.now
        if self.dispatch_trace is not None:
            self.dispatch_trace.log(member.name)
        self.policy.on_dispatch(member, request)
        tracer = self.env.tracer
        span = (tracer.start(request.request_id, "balancer.send",
                             member=member.name)
                if tracer is not None else None)
        try:
            yield from member.send(request)
        finally:
            member.inflight -= 1
            endpoint.release()
            if tracer is not None:
                tracer.finish(span)
        member.completed += 1
        self.policy.on_complete(member, request)

    # -- analysis helpers ---------------------------------------------------
    def distribution_between(self, start: float,
                             end: float) -> dict[str, int]:
        """Dispatches per backend in ``[start, end)`` (Fig. 6(c) et al.)."""
        return self._counts(self.dispatch_trace, start, end)

    def picks_between(self, start: float, end: float) -> dict[str, int]:
        """Picks per backend in ``[start, end)`` (the phase-2 funnel)."""
        return self._counts(self.pick_trace, start, end)

    def _counts(self, trace: Optional[TraceLog], start: float,
                end: float) -> dict[str, int]:
        if trace is None:
            raise ConfigurationError(
                "dispatch tracing disabled on " + self.name)
        counts: dict[str, int] = {
            m.name: 0 for m in self.members + self.retired_members}
        for _, backend in trace.between(start, end):
            counts[backend] = counts.get(backend, 0) + 1
        return counts

    def distribution_windows(self, window: float = PAPER_WINDOW,
                             until: Optional[float] = None
                             ) -> dict[str, "object"]:
        """Per-backend dispatch counts in fixed windows, as TimeSeries."""
        if self.dispatch_trace is None:
            raise ConfigurationError(
                "dispatch tracing disabled on " + self.name)
        counters = {m.name: WindowedCounter(window, m.name)
                    for m in self.members + self.retired_members}
        for time, backend in self.dispatch_trace:
            counters[backend].record(time)
        return {name: counter.series(until=until)
                for name, counter in counters.items()}

    def member_named(self, name: str) -> BalancerMember:
        for member in self.members:
            if member.name == name:
                return member
        raise ConfigurationError("no member named " + name)

    def __repr__(self) -> str:
        return "<LoadBalancer {} policy={} mechanism={}>".format(
            self.name, self.policy.name, self.mechanism.name)


class DirectDispatcher:
    """No load balancer: requests go straight to a backend, no policy.

    With a single backend this models the paper's §III-B configuration
    (1 Apache / 1 Tomcat / 1 MySQL), used to show that millibottlenecks
    cause VLRT requests even before any scheduling pathology.  Given
    several backends it statically round-robins over them — DNS-style
    spreading with no lb_value ranking, no endpoint probing and no
    3-state machine, the strawman every mod_jk policy is measured
    against.
    """

    def __init__(self, env: "Environment",
                 backend: "TierServer" | Sequence["TierServer"],
                 link_factory: Optional[Callable[[object], Link]] = None
                 ) -> None:
        backends = (list(backend) if isinstance(backend, Sequence)
                    else [backend])
        if not backends:
            raise ConfigurationError(
                "direct dispatcher needs at least one backend")
        self.env = env
        self.backends = backends
        self._link_factory = link_factory
        self.links = [self._make_link(server) for server in backends]
        self.dispatches = 0

    def _make_link(self, server) -> Link:
        if self._link_factory is not None:
            return self._link_factory(server)
        return Link(self.env, name="direct->" + server.name)

    def add_backend(self, server) -> None:
        """Join ``server`` to the static round-robin rotation."""
        self.backends.append(server)
        self.links.append(self._make_link(server))

    def remove_backend(self, server) -> None:
        """Drop ``server`` from the rotation (in-flight work completes
        through references already held)."""
        if len(self.backends) == 1:
            raise ConfigurationError(
                "cannot remove the last backend of a direct dispatcher")
        position = self.backends.index(server)
        self.backends.pop(position)
        self.links.pop(position)

    def dispatch(self, request: Request):
        """Process generator: forward ``request`` to the next backend."""
        index = self.dispatches % len(self.backends)
        backend, link = self.backends[index], self.links[index]
        self.dispatches += 1
        request.served_by = backend.name
        request.dispatched_at = self.env.now
        tracer = self.env.tracer
        span = (tracer.start(request.request_id, "balancer.send",
                             member=backend.name, direct=True)
                if tracer is not None else None)
        try:
            yield from link.round_trip(backend, request)
        finally:
            if tracer is not None:
                tracer.finish(span)
        return request  # statan: ignore[PROC003] -- process value


class ZoneRouter:
    """Locality-first routing over per-zone load balancers.

    The zone-hierarchy alternative to one flat balancer: the upstream
    server keeps a *zone-local* :class:`LoadBalancer` per zone and
    prefers its own zone — a request only crosses the WAN when the
    local zone has no dispatchable candidate (every local member in
    Error), at which point it *spills over* to the remaining zones in
    deterministic (sorted) order.  Whether that containment actually
    helps against millibottlenecks is the experiment, not a premise.

    Zone membership is fixed at build time: the autoscaler has no zone
    notion, so the spec layer rejects a hierarchy over an autoscaled
    tier.
    """

    def __init__(self, env: "Environment", name: str,
                 zone_balancers: dict[str, LoadBalancer],
                 home_zone: str) -> None:
        if not zone_balancers:
            raise ConfigurationError(
                "zone router needs at least one zone balancer")
        if home_zone not in zone_balancers:
            raise ConfigurationError(
                "zone router {!r}: home zone {!r} has no balancer "
                "(zones: {})".format(name, home_zone,
                                     ", ".join(sorted(zone_balancers))))
        self.env = env
        self.name = name
        self.home_zone = home_zone
        #: zone name -> zone-local balancer (stable, sorted iteration).
        self.zone_balancers = dict(sorted(zone_balancers.items()))
        #: Spill order after the home zone: sorted remote zone names.
        self._spill_zones = [zone for zone in self.zone_balancers
                             if zone != home_zone]
        self.dispatches = 0
        self.local_dispatches = 0
        #: Requests the home zone could not place (all local members
        #: Error) that were re-dispatched across the WAN.
        self.spillovers = 0

    def dispatch(self, request: Request):
        """Process generator: locality-first dispatch with spillover."""
        self.dispatches += 1
        try:
            result = yield from self.zone_balancers[
                self.home_zone].dispatch(request)
            self.local_dispatches += 1
            return result  # statan: ignore[PROC003] -- process value
        except NoCandidateError:
            pass
        tracer = self.env.tracer
        for zone in list(self._spill_zones):
            if tracer is not None:
                tracer.instant(request.request_id, "zone.spillover",
                               router=self.name, to_zone=zone)
            try:
                result = yield from self.zone_balancers[zone].dispatch(
                    request)
                self.spillovers += 1
                return result  # statan: ignore[PROC003] -- process value
            except NoCandidateError:
                continue
        raise NoCandidateError(
            "{}: every zone's backends are in Error state".format(
                self.name))

    def __repr__(self) -> str:
        return "<ZoneRouter {} home={} zones={} spillovers={}>".format(
            self.name, self.home_zone,
            ",".join(self.zone_balancers), self.spillovers)
