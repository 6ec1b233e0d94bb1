"""N-tier topology builder (the paper's Fig. 14, generalized).

:func:`build_from_spec` turns a declarative
:class:`~repro.cluster.spec.TopologySpec` into a fully wired
:class:`NTierSystem`: tiers are built back to front (each tier's
dispatchers need the next tier's servers), with one balancer — or
round-robin direct dispatcher — per upstream server at every
non-inline boundary.  The paper's fixed 3-tier shape is no special
case: it is the spec :meth:`TopologySpec.classic` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.cluster.spec import LinkProfileSpec, TierSpec, TopologySpec
from repro.controlplane.admission import TokenBucketAdmission
from repro.controlplane.autoscaler import ReactiveAutoscaler
from repro.controlplane.bulkhead import Bulkhead
from repro.controlplane.leveling import LevelingDispatcher, LevelingQueue
from repro.core.balancer import DirectDispatcher, LoadBalancer, ZoneRouter
from repro.core.mechanism import GetEndpointMechanism
from repro.core.policies import Policy
from repro.core.remedies import get_bundle
from repro.core.states import StateConfig
from repro.errors import ConfigurationError
from repro.netmodel.sockets import Link
from repro.osmodel.host import Host
from repro.tiers.base import (
    DispatchDownstream,
    FrontendTier,
    InlineDownstream,
    PooledTier,
    TierServer,
    WorkerTier,
)
from repro.tiers.cache import CacheTier
from repro.tiers.shard import ShardRouter

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience import ResilienceConfig
    from repro.resilience.hedge import HedgingDispatcher
    from repro.resilience.probes import HealthProber
    from repro.sim.core import Environment

#: Endpoints per member on a balanced boundary with no ``pool_size``:
#: the scaled Fig. 14 pool (see ``ScaleProfile.connection_pool_size``).
BOUNDARY_POOL_SIZE = 6


@dataclass
class NTierSystem:
    """All the servers of one experiment, fully wired.

    Tiers are addressed generically: ``system.tiers["tomcat"]`` is the
    list of app-tier replicas, front-to-back order in ``tier_names``,
    and ``frontends`` is the client-facing tier.
    """

    env: "Environment"
    tier_names: tuple[str, ...]
    tiers: dict[str, list[TierServer]]
    #: The declarative spec the system was built from.
    spec: TopologySpec
    balancers: list[LoadBalancer] = field(default_factory=list)
    direct_dispatchers: list[DirectDispatcher] = field(default_factory=list)
    #: Health-probe drivers, one per balancer (when probes configured).
    probers: list["HealthProber"] = field(default_factory=list)
    #: Hedging wrappers, one per balancer (when hedging configured).
    hedgers: list["HedgingDispatcher"] = field(default_factory=list)
    #: Control-plane attachments (empty unless configured).
    autoscalers: list["ReactiveAutoscaler"] = field(default_factory=list)
    admissions: list["TokenBucketAdmission"] = field(default_factory=list)
    levelers: list["LevelingQueue"] = field(default_factory=list)
    bulkheads: list["Bulkhead"] = field(default_factory=list)
    #: Replicas removed by scale-down, per tier — kept for accounting
    #: and for in-flight requests that still hold references.
    retired: dict[str, list[TierServer]] = field(default_factory=dict)
    #: Dispatchers per boundary depth (boundary *d* feeds tier *d*+1);
    #: replicas added to tier *d*+1 join every dispatcher at depth *d*.
    dispatchers_by_depth: dict[int, list] = field(default_factory=dict)
    #: Zone routers (one per upstream server of a hierarchy boundary).
    zone_routers: list[ZoneRouter] = field(default_factory=list)
    #: Shard routers (one per upstream server of a sharded boundary).
    shard_routers: list[ShardRouter] = field(default_factory=list)
    #: Every WAN-profiled link of the deployment, for fault targeting.
    wan_links: list[Link] = field(default_factory=list)
    #: Per-tier replica builders captured by :func:`build_from_spec`;
    #: resolved through :func:`replica_factory_for`.
    _replica_factories: dict[str, Callable[[int], TierServer]] = field(
        default_factory=dict)

    # -- generic addressing ------------------------------------------------
    @property
    def frontends(self) -> list[TierServer]:
        """The client-facing tier's servers (they own accept sockets)."""
        return self.tiers[self.tier_names[0]]

    @property
    def servers(self) -> list[TierServer]:
        """Every tier server, front-to-back tier order."""
        return [server for name in self.tier_names
                for server in self.tiers[name]]

    @property
    def hosts(self) -> list[Host]:
        """Every host of the deployment, front-to-back tier order."""
        return [server.host for server in self.servers]

    def server_named(self, name: str) -> TierServer:
        for server in self.servers:
            if server.name == name:
                return server
        raise ConfigurationError("no server named " + name)

    # -- zones -------------------------------------------------------------
    @property
    def zone_names(self) -> tuple[str, ...]:
        """Declared zones, in spec order (empty when zone-free)."""
        return tuple(zone.name for zone in self.spec.zones)

    def servers_in_zone(self, zone: str) -> list[TierServer]:
        """Every live server placed in ``zone``, tier order."""
        return [server for server in self.servers
                if getattr(server, "zone", None) == zone]

    # -- aggregates --------------------------------------------------------
    def millibottleneck_records(self):
        """Ground-truth stall records across all hosts, time-ordered."""
        records = [record for host in self.hosts
                   for record in host.millibottlenecks]
        return sorted(records, key=lambda record: record.started_at)

    def total_dispatches(self) -> int:
        # Zone routers delegate to their inner balancers (already in
        # ``balancers``), so counting them too would double-count.
        return (sum(balancer.dispatches for balancer in self.balancers)
                + sum(d.dispatches for d in self.direct_dispatchers)
                + sum(s.dispatches for s in self.shard_routers))


# -- generic builder --------------------------------------------------------

def build_from_spec(
    env: "Environment",
    spec: TopologySpec,
    *,
    rng: np.random.Generator,
    trace_balancers: bool = True,
    state_config: Optional[StateConfig] = None,
    policy_factory: Optional[Callable[[], Policy]] = None,
    mechanism_factory: Optional[Callable[[], GetEndpointMechanism]] = None,
    resilience: Optional["ResilienceConfig"] = None,
) -> NTierSystem:
    """Build and wire the system a :class:`TopologySpec` describes.

    ``rng`` is the experiment's seeded generator, the one source of
    the build's randomness.  Endpoint pools come from the boundaries'
    ``pool_size`` (:data:`BOUNDARY_POOL_SIZE` when unset).
    ``trace_balancers`` gives every balancer its dispatch and pick logs
    and every member its lb_value series (Figs. 6(c)/9(b)/10(b)/13(b)).

    ``policy_factory``/``mechanism_factory`` and ``resilience``
    override the *frontend* boundary; every other balanced boundary
    takes its bundle from the spec.
    """
    system = NTierSystem(
        env=env, spec=spec,
        tier_names=tuple(tier.name for tier in spec.tiers),
        tiers={tier.name: [] for tier in spec.tiers})

    downstream: list[TierServer] = []
    for depth in reversed(range(len(spec.tiers))):
        tier = spec.tiers[depth]
        boundary = (spec.boundaries[depth]
                    if depth < len(spec.boundaries) else None)
        servers = system.tiers[tier.name]
        if tier.service == "frontend":
            # Hosts and servers first, then one dispatcher per server —
            # the classic construction (and hence event) order.
            for index in range(tier.replicas):
                host = _make_host(env, tier, index)
                server = FrontendTier(
                    env, host.name, host,
                    max_clients=tier.capacity, backlog=tier.backlog,
                    role=tier.name,
                    cpu_source=tier.effective_cpu_source)
                server.zone = _zone_of(spec, tier, index)
                servers.append(server)
            for server in servers:
                server.attach_dispatcher(_make_dispatcher(
                    env, system, server.name, server.zone, boundary,
                    downstream, depth, trace_balancers, state_config, rng,
                    policy_factory, mechanism_factory, resilience))
            _wire_frontend_controlplane(env, system, tier, boundary,
                                        servers)
        elif tier.service in ("worker", "cache"):
            make_replica = _worker_factory(
                env, system, spec, depth, trace_balancers, state_config,
                rng, policy_factory, mechanism_factory, resilience)
            for index in range(tier.replicas):
                make_replica(index)
        else:  # pooled
            make_replica = _pooled_factory(env, system, spec, depth)
            for index in range(tier.replicas):
                make_replica(index)
        downstream = servers
    # Autoscalers last: they resolve their tier's replica factory
    # eagerly, and every factory must exist by now.
    for tier in spec.tiers:
        if tier.autoscaler is not None:
            system.autoscalers.append(ReactiveAutoscaler(
                env, system, tier.name, tier.autoscaler))
    return system


def _worker_factory(env, system, spec, depth, trace_balancers,
                    state_config, rng, policy_factory, mechanism_factory,
                    resilience):
    """A closure that builds one more replica of the worker tier at
    ``depth``, appends it to the system and joins it (cold) to every
    dispatcher feeding the tier.

    Used both for initial construction (when no upstream dispatchers
    exist yet — the builder runs back to front) and by the autoscaler
    at runtime (when they do).  Registered in
    ``system._replica_factories`` for :func:`replica_factory_for`.
    """
    tier = spec.tiers[depth]
    boundary = (spec.boundaries[depth]
                if depth < len(spec.boundaries) else None)
    downstream = (system.tiers[spec.tiers[depth + 1].name]
                  if depth + 1 < len(spec.tiers) else None)

    def make_replica(index: int) -> TierServer:
        host = _make_host(env, tier, index)
        zone = _zone_of(spec, tier, index)
        if boundary is None:
            tier_downstream = None
        elif boundary.mode == "inline":
            tier_downstream = InlineDownstream(downstream[0])
        else:
            tier_downstream = DispatchDownstream(_make_dispatcher(
                env, system, host.name, zone, boundary, downstream,
                depth, trace_balancers, state_config, rng,
                policy_factory, mechanism_factory, resilience))
        if tier.service == "cache":
            cache = tier.effective_cache
            server = CacheTier(
                env, host.name, host,
                max_threads=tier.capacity,
                rng=rng,
                downstream=tier_downstream,
                role=tier.name,
                cpu_source=tier.effective_cpu_source,
                hit_ratio=cache.hit_ratio,
                ttl=cache.ttl,
                churn=cache.churn,
                warmup=cache.warmup,
                hit_cpu_fraction=cache.hit_cpu_fraction)
        else:
            server = WorkerTier(
                env, host.name, host,
                max_threads=tier.capacity,
                downstream=tier_downstream,
                role=tier.name,
                cpu_source=tier.effective_cpu_source)
        server.zone = zone
        _join_tier(system, tier.name, depth, server)
        return server

    system._replica_factories[tier.name] = make_replica
    return make_replica


def _pooled_factory(env, system, spec, depth):
    """Replica factory for a pooled tier (see :func:`_worker_factory`)."""
    tier = spec.tiers[depth]

    def make_replica(index: int) -> TierServer:
        host = _make_host(env, tier, index)
        server = PooledTier(
            env, host.name, host,
            max_connections=tier.capacity,
            role=tier.name,
            cpu_source=tier.effective_cpu_source)
        server.zone = _zone_of(spec, tier, index)
        if tier.bulkhead is not None:
            bulkhead = Bulkhead(env, tier.bulkhead,
                                name=server.name + ".bulkhead")
            server.install_bulkhead(bulkhead)
            system.bulkheads.append(bulkhead)
        _join_tier(system, tier.name, depth, server)
        return server

    system._replica_factories[tier.name] = make_replica
    return make_replica


def _join_tier(system: NTierSystem, tier_name: str, depth: int,
               server: TierServer) -> None:
    """Append ``server`` to its tier and join every feeding dispatcher.

    During initial construction the dispatcher registry at ``depth - 1``
    is still empty (tiers build back to front), so this is a plain
    append; at runtime a scaled-up replica joins every upstream
    balancer cold (``preconnect=False`` — no established connections).
    """
    system.tiers[tier_name].append(server)
    for dispatcher in system.dispatchers_by_depth.get(depth - 1, ()):
        if isinstance(dispatcher, LoadBalancer):
            dispatcher.add_member(server, preconnect=False)
        else:
            dispatcher.add_backend(server)


def _wire_frontend_controlplane(env, system, tier, boundary,
                                servers) -> None:
    """Attach spec-declared control-plane mechanisms to a frontend tier."""
    for server in servers:
        if tier.admission is not None:
            controller = TokenBucketAdmission(
                env, tier.admission, name=server.name + ".admission")
            server.install_admission(controller)
            system.admissions.append(controller)
        if tier.bulkhead is not None:
            bulkhead = Bulkhead(env, tier.bulkhead,
                                name=server.name + ".bulkhead")
            server.install_bulkhead(bulkhead)
            system.bulkheads.append(bulkhead)
        if boundary.leveling is not None:
            system.levelers.append(
                server.install_leveling(boundary.leveling))


def replica_factory_for(system: NTierSystem,
                        tier_name: str) -> Callable[[int], TierServer]:
    """The builder for one more replica of ``tier_name``.

    Only worker and pooled tiers have one; frontends cannot scale at
    runtime (clients bind their sockets when the population is
    created).
    """
    try:
        return system._replica_factories[tier_name]
    except KeyError:
        raise ConfigurationError(
            "tier {!r} has no replica factory (frontend tiers cannot "
            "be scaled at runtime)".format(tier_name)) from None


def retire_replica(system: NTierSystem, tier_name: str,
                   server: TierServer) -> None:
    """Remove ``server`` from rotation without losing its work.

    The replica leaves its tier list and every upstream dispatcher, but
    moves to ``system.retired`` — in-flight requests complete through
    the references their dispatch already holds, and the server's
    counters stay available for conservation accounting.
    """
    servers = system.tiers[tier_name]
    if server not in servers:
        raise ConfigurationError(
            "{} is not a live replica of {}".format(server.name, tier_name))
    if len(servers) == 1:
        raise ConfigurationError(
            "cannot retire the last replica of " + tier_name)
    servers.remove(server)
    system.retired.setdefault(tier_name, []).append(server)
    depth = system.tier_names.index(tier_name)
    for dispatcher in system.dispatchers_by_depth.get(depth - 1, ()):
        if isinstance(dispatcher, LoadBalancer):
            if any(member.name == server.name
                   for member in dispatcher.members):
                dispatcher.retire_member(server.name)
        elif isinstance(dispatcher, ZoneRouter):
            if any(member.name == server.name
                   for balancer in dispatcher.zone_balancers.values()
                   for member in balancer.members):
                dispatcher.retire_member(server.name)
        elif server in dispatcher.backends:
            dispatcher.remove_backend(server)


def _zone_of(spec: TopologySpec, tier: TierSpec,
             index: int) -> Optional[str]:
    """The zone of the ``index``-th replica of ``tier``.

    Explicit placement wins; otherwise replicas round-robin across the
    declared zones.  Zone-free topologies place nothing (``None``).
    """
    if tier.placement is not None:
        return tier.placement[index]
    if spec.zones:
        return spec.zones[index % len(spec.zones)].name
    return None


def _wan_profile_between(spec: TopologySpec, zone_a: str,
                         zone_b: str) -> LinkProfileSpec:
    """Resolve the WAN profile of one cross-zone pair.

    Most specific wins: an explicit :class:`ZoneLinkSpec` for the pair,
    then either zone's default link (upstream side first), then the
    built-in WAN default.
    """
    pair = tuple(sorted((zone_a, zone_b)))
    for zone_link in spec.zone_links:
        if zone_link.pair == pair:
            return zone_link.link
    for name in (zone_a, zone_b):
        for zone in spec.zones:
            if zone.name == name and zone.link is not None:
                return zone.link
    return LinkProfileSpec()


def _link_factory_for(env, system, owner_name: str,
                      owner_zone: Optional[str], boundary, rng):
    """Build the member-link factory for one upstream server's dispatcher.

    Returns ``None`` when every hop is intra-zone with no boundary
    override — the dispatcher then builds its legacy fixed-latency
    links and the construction stays byte-identical to the zone-free
    world.
    """
    spec = system.spec
    zoned = bool(spec.zones)
    if not zoned and boundary.link is None:
        return None

    def make_link(server) -> Link:
        target_zone = getattr(server, "zone", None)
        profile_spec = None
        pair = None
        if zoned and owner_zone is not None and target_zone is not None \
                and owner_zone != target_zone:
            pair = tuple(sorted((owner_zone, target_zone)))
            profile_spec = (boundary.link
                            if boundary.link is not None
                            else _wan_profile_between(
                                spec, owner_zone, target_zone))
        elif not zoned and boundary.link is not None:
            # Zone-free topology with an explicit boundary link: every
            # hop on the boundary is a (uniform) WAN hop.
            profile_spec = boundary.link
        if profile_spec is None:
            return Link(env, name="{}->{}".format(owner_name, server.name))
        link_name = "{}=>{}".format(owner_name, server.name)
        link = Link(env, profile_spec.latency, name=link_name,
                    profile=profile_spec.runtime(name=link_name),
                    rng=rng, zone_pair=pair)
        system.wan_links.append(link)
        return link

    return make_link


def _make_host(env: "Environment", tier: TierSpec, index: int) -> Host:
    kwargs = {}
    if tier.disk_bandwidth is not None:
        kwargs["disk_bandwidth"] = tier.disk_bandwidth
    if tier.flush is not None:
        kwargs["flush_profile"] = tier.flush.profile(index)
    return Host(env, "{}{}".format(tier.name, index + 1),
                cores=tier.cores, **kwargs)


def _make_dispatcher(env, system, owner_name, owner_zone, boundary,
                     downstream, depth, trace_balancers, state_config, rng,
                     policy_factory, mechanism_factory, resilience):
    """One upstream server's dispatcher over the next tier's replicas."""
    link_factory = _link_factory_for(env, system, owner_name, owner_zone,
                                     boundary, rng)
    if boundary.mode == "direct":
        dispatcher = DirectDispatcher(env, list(downstream),
                                      link_factory=link_factory)
        system.direct_dispatchers.append(dispatcher)
        system.dispatchers_by_depth.setdefault(depth, []).append(dispatcher)
        return _maybe_level(env, system, owner_name, boundary, depth,
                            dispatcher)
    if boundary.mode == "sharded":
        shard = boundary.effective_shard
        dispatcher = ShardRouter(
            env, owner_name + ".shards", list(downstream),
            rng=rng,
            virtual_nodes=shard.virtual_nodes,
            key_space=shard.key_space,
            skew=shard.skew,
            link_factory=link_factory)
        system.shard_routers.append(dispatcher)
        system.dispatchers_by_depth.setdefault(depth, []).append(dispatcher)
        return _maybe_level(env, system, owner_name, boundary, depth,
                            dispatcher)
    make_policy, make_mechanism = _boundary_factories(
        boundary, depth, policy_factory, mechanism_factory)
    weights = system.spec.tiers[depth + 1].weights
    boundary_resilience = _boundary_resilience(boundary, depth, resilience)

    def make_balancer(name, servers, zone_weights):
        policy = make_policy()
        if boundary.probe is not None or boundary.affinity is not None:
            # configure() raises when the policy cannot consume the
            # tuning (probe knobs on total_request, affinity on
            # prequal, ...), so a spec cannot silently carry dead
            # configuration.
            policy.configure(probe=boundary.probe,
                             affinity=boundary.affinity)
        balancer = LoadBalancer(
            env, name, servers,
            policy=policy,
            mechanism=make_mechanism(),
            rng=rng,
            pool_size=boundary.pool_size or BOUNDARY_POOL_SIZE,
            trace=trace_balancers,
            state_config=state_config,
            weights=zone_weights,
            link_factory=link_factory,
        )
        system.balancers.append(balancer)
        return balancer

    if boundary.hierarchy:
        if boundary_resilience is not None \
                and boundary_resilience.hedge is not None:
            raise ConfigurationError(
                "hedging is not supported on zone-hierarchy boundaries "
                "— hedge through the zone-local balancers instead")
        # Group the downstream replicas by zone, preserving replica
        # order inside each zone; one zone-local balancer per group
        # under a global locality-first router.
        groups: dict[str, list] = {}
        group_weights: dict[str, list] = {}
        for index, server in enumerate(downstream):
            zone = getattr(server, "zone", None)
            groups.setdefault(zone, []).append(server)
            if weights is not None:
                group_weights.setdefault(zone, []).append(weights[index])
        zone_balancers = {}
        for zone in sorted(groups):
            balancer = make_balancer(
                "{}.{}.lb".format(owner_name, zone), groups[zone],
                group_weights.get(zone))
            _wire_resilience(env, system, balancer, boundary_resilience,
                             rng)
            zone_balancers[zone] = balancer
        home_zone = (owner_zone if owner_zone in zone_balancers
                     else sorted(zone_balancers)[0])
        router = ZoneRouter(env, owner_name + ".zones", zone_balancers,
                            home_zone=home_zone)
        system.zone_routers.append(router)
        # Membership churn routes through the router (it forwards to
        # the owning zone's balancer).
        system.dispatchers_by_depth.setdefault(depth, []).append(router)
        return _maybe_level(env, system, owner_name, boundary, depth,
                            router)
    balancer = make_balancer(owner_name + ".lb", downstream, weights)
    # Membership churn applies to the balancer itself, never a wrapper.
    system.dispatchers_by_depth.setdefault(depth, []).append(balancer)
    dispatcher = _wire_resilience(
        env, system, balancer, boundary_resilience, rng)
    return _maybe_level(env, system, owner_name, boundary, depth,
                        dispatcher)


def _maybe_level(env, system, owner_name, boundary, depth, dispatcher):
    """Wrap a mid-tier dispatcher in its boundary's leveling queue.

    The frontend boundary (depth 0) integrates leveling natively inside
    :class:`~repro.tiers.base.FrontendTier` — the worker answers the
    client while drains dispatch — so only deeper boundaries take the
    request/reply wrapper.
    """
    if depth == 0 or boundary.leveling is None:
        return dispatcher
    leveled = LevelingDispatcher(env, dispatcher, boundary.leveling,
                                 name=owner_name + ".leveling")
    system.levelers.append(leveled.queue)
    return leveled


def _boundary_factories(boundary, depth, policy_factory, mechanism_factory):
    """Resolve the policy/mechanism pair for one balanced boundary."""
    if depth == 0 and (policy_factory is not None
                       or mechanism_factory is not None):
        if policy_factory is None or mechanism_factory is None:
            raise ConfigurationError(
                "pass both policy_factory and mechanism_factory")
        return policy_factory, mechanism_factory
    if boundary.bundle is not None:
        bundle = get_bundle(boundary.bundle)
        return bundle.make_policy, bundle.make_mechanism
    raise ConfigurationError(
        "balanced boundary {} names no policy bundle (set its bundle, "
        "or pass policy/mechanism factories for boundary 0)".format(depth))


def _boundary_resilience(boundary, depth, resilience):
    """Resolve one boundary's resilience configuration.

    At boundary 0 a ``resilience`` carrying hedge, breaker or probes
    replaces the spec's bundle, so the spec may not name one too (the
    rule ``ExperimentConfig.spec()`` applies to the control plane).  A
    retry-only ``resilience`` drives the clients and leaves the spec's
    bundle wired.
    """
    if depth == 0 and resilience is not None and (
            resilience.hedge is not None or resilience.breaker is not None
            or resilience.probes is not None):
        if boundary.resilience is not None:
            raise ConfigurationError(
                "boundary 0: resilience is set by both the topology "
                "({!r}) and ExperimentConfig.resilience".format(
                    boundary.resilience))
        return resilience
    if boundary.resilience is not None:
        from repro.resilience import get_resilience

        return get_resilience(boundary.resilience)
    return None


def _wire_resilience(env, system, balancer, resilience, rng):
    """Install the configured remedies around one balancer.

    Returns the dispatcher the upstream server should use: the
    balancer itself, or its hedging wrapper.
    """
    if resilience is None:
        return balancer
    if resilience.breaker is not None:
        from repro.resilience.breaker import CircuitBreaker

        balancer.install_breakers([
            CircuitBreaker(env, resilience.breaker)
            for _ in balancer.members
        ])
    if resilience.probes is not None:
        from repro.resilience.probes import HealthProber

        system.probers.append(HealthProber(
            env, balancer.members, resilience.probes, rng=rng,
            name=balancer.name + ".prober"))
    if resilience.hedge is not None:
        from repro.resilience.hedge import HedgingDispatcher

        hedger = HedgingDispatcher(env, balancer, resilience.hedge)
        system.hedgers.append(hedger)
        return hedger
    return balancer
