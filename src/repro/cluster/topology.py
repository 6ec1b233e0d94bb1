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

from dataclasses import asdict, dataclass, field
from functools import partial
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
from repro.tiers.base import FrontendTier, PooledTier, TierServer, WorkerTier
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
    #: Membership-tracking dispatchers per boundary depth (boundary *d*
    #: feeds tier *d*+1): every one answers ``add_backend(server)`` and
    #: ``remove_backend(server)``, and a replica added to or retired
    #: from tier *d*+1 joins or leaves every one at depth *d*.  Zone
    #: routers are not recorded: a hierarchy's tier cannot autoscale.
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
    return _Builder(env, spec, rng, trace_balancers, state_config,
                    policy_factory, mechanism_factory, resilience).build()


class _Builder:
    """One build's inputs, shared by every construction step.

    Tiers are built back to front: each tier's dispatchers need the
    next tier's servers.  :meth:`replica` outlives the build as every
    scalable tier's replica factory, so a replica the autoscaler adds
    is wired exactly as the build wires one.
    """

    def __init__(self, env, spec, rng, trace_balancers, state_config,
                 policy_factory, mechanism_factory, resilience) -> None:
        self.env = env
        self.spec = spec
        self.rng = rng
        self.trace_balancers = trace_balancers
        self.state_config = state_config
        self.policy_factory = policy_factory
        self.mechanism_factory = mechanism_factory
        self.resilience = resilience
        self.system = NTierSystem(
            env=env, spec=spec,
            tier_names=tuple(tier.name for tier in spec.tiers),
            tiers={tier.name: [] for tier in spec.tiers})

    def build(self) -> NTierSystem:
        spec, system = self.spec, self.system
        for depth in reversed(range(len(spec.tiers))):
            tier = spec.tiers[depth]
            if tier.service == "frontend":
                self.frontends(depth)
                continue
            system._replica_factories[tier.name] = partial(self.replica,
                                                           depth)
            for index in range(tier.replicas):
                self.replica(depth, index)
        # Autoscalers last: they resolve their tier's replica factory
        # eagerly, and every factory must exist by now.
        for tier in spec.tiers:
            if tier.autoscaler is not None:
                system.autoscalers.append(ReactiveAutoscaler(
                    self.env, system, tier.name, tier.autoscaler))
        return system

    # -- servers ---------------------------------------------------------
    def frontends(self, depth: int) -> None:
        """Build the client-facing tier at ``depth``.

        Hosts and servers first, then one dispatcher per server, then
        each server's admission, bulkhead and leveling — the classic
        construction (and hence event) order.
        """
        env, spec, system = self.env, self.spec, self.system
        tier = spec.tiers[depth]
        servers = system.tiers[tier.name]
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
            server.attach_dispatcher(
                self.dispatcher(server.name, server.zone, depth))
        leveling = spec.boundaries[depth].leveling
        for server in servers:
            if tier.admission is not None:
                controller = TokenBucketAdmission(
                    env, tier.admission, name=server.name + ".admission")
                server.install_admission(controller)
                system.admissions.append(controller)
            self._bulkhead(server, tier.bulkhead)
            if leveling is not None:
                system.levelers.append(server.install_leveling(leveling))

    def replica(self, depth: int, index: int) -> TierServer:
        """Build the ``index``-th replica of the tier at ``depth``.

        The replica joins its tier and, cold, every dispatcher feeding
        the tier: none during the build, every upstream one when the
        autoscaler adds it at runtime.  A worker replica's own
        dispatcher is built before the server.
        """
        env, spec, system = self.env, self.spec, self.system
        tier = spec.tiers[depth]
        host = _make_host(env, tier, index)
        zone = _zone_of(spec, tier, index)
        if tier.service == "pooled":
            server = PooledTier(
                env, host.name, host,
                max_connections=tier.capacity,
                role=tier.name,
                cpu_source=tier.effective_cpu_source)
        else:
            downstream = None
            if depth < len(spec.boundaries):
                if spec.boundaries[depth].mode == "inline":
                    downstream = system.tiers[
                        spec.tiers[depth + 1].name][0].query
                else:
                    downstream = self.dispatcher(host.name, zone,
                                                 depth).dispatch
            if tier.service == "cache":
                # CacheSpec's fields are CacheTier's cache keywords.
                model, extra = CacheTier, dict(
                    asdict(tier.effective_cache), rng=self.rng)
            else:
                model, extra = WorkerTier, {}
            server = model(
                env, host.name, host,
                max_threads=tier.capacity,
                downstream=downstream,
                role=tier.name,
                cpu_source=tier.effective_cpu_source,
                **extra)
        server.zone = zone
        self._bulkhead(server, tier.bulkhead)
        system.tiers[tier.name].append(server)
        for dispatcher in system.dispatchers_by_depth.get(depth - 1, ()):
            dispatcher.add_backend(server)
        return server

    def _bulkhead(self, server: TierServer, config) -> None:
        """Install a bulkhead on a frontend or pooled server, if set."""
        if config is None:
            return
        bulkhead = Bulkhead(self.env, config,
                            name=server.name + ".bulkhead")
        server.install_bulkhead(bulkhead)
        self.system.bulkheads.append(bulkhead)

    # -- dispatchers -----------------------------------------------------
    def dispatcher(self, owner: str, zone: Optional[str], depth: int):
        """``owner``'s dispatcher over the replicas of tier ``depth + 1``.

        The membership-tracking dispatcher (direct, shard router or flat
        balancer) is recorded in ``dispatchers_by_depth``; what is
        returned may wrap it in a hedger or a leveling queue.  A zone
        hierarchy records nothing: its tier cannot autoscale.
        """
        env, system = self.env, self.system
        boundary = self.spec.boundaries[depth]
        downstream = system.tiers[self.spec.tiers[depth + 1].name]
        link_factory = self._link_factory(owner, zone, boundary)
        if boundary.mode == "direct":
            dispatcher = members = DirectDispatcher(
                env, list(downstream), link_factory=link_factory)
            system.direct_dispatchers.append(dispatcher)
        elif boundary.mode == "sharded":
            shard = boundary.effective_shard
            dispatcher = members = ShardRouter(
                env, owner + ".shards", list(downstream),
                rng=self.rng,
                virtual_nodes=shard.virtual_nodes,
                key_space=shard.key_space,
                skew=shard.skew,
                link_factory=link_factory)
            system.shard_routers.append(dispatcher)
        elif boundary.hierarchy:
            return self._level(owner, depth, self._zone_router(
                owner, zone, depth, downstream, link_factory))
        else:
            members, dispatcher = self._balancer(
                owner + ".lb", downstream,
                self.spec.tiers[depth + 1].weights, depth, link_factory)
        # Membership churn applies to the dispatcher itself, never a
        # wrapper.
        system.dispatchers_by_depth.setdefault(depth, []).append(members)
        return self._level(owner, depth, dispatcher)

    def _balancer(self, name: str, servers, weights, depth: int,
                  link_factory):
        """One balancer on the balanced boundary at ``depth``.

        Returns the balancer and the dispatcher to forward through:
        the balancer itself or its hedging wrapper.
        """
        boundary = self.spec.boundaries[depth]
        make_policy, make_mechanism = self._factories(depth)
        resilience = self._resilience(depth)
        policy = make_policy()
        if boundary.probe is not None or boundary.affinity is not None:
            # configure() raises when the policy cannot consume the
            # tuning (probe knobs on total_request, affinity on
            # prequal, ...), so a spec cannot silently carry dead
            # configuration.
            policy.configure(probe=boundary.probe,
                             affinity=boundary.affinity)
        balancer = LoadBalancer(
            self.env, name, servers,
            policy=policy,
            mechanism=make_mechanism(),
            rng=self.rng,
            pool_size=boundary.pool_size or BOUNDARY_POOL_SIZE,
            trace=self.trace_balancers,
            state_config=self.state_config,
            weights=weights,
            link_factory=link_factory,
        )
        self.system.balancers.append(balancer)
        return balancer, self._wire_resilience(balancer, resilience)

    def _zone_router(self, owner: str, zone: Optional[str], depth: int,
                     downstream, link_factory) -> ZoneRouter:
        """Zone-local balancers under a global locality-first router."""
        resilience = self._resilience(depth)
        if resilience is not None and resilience.hedge is not None:
            raise ConfigurationError(
                "hedging is not supported on zone-hierarchy boundaries "
                "— hedge through the zone-local balancers instead")
        # Group the downstream replicas by zone, preserving replica
        # order inside each zone; one zone-local balancer per group.
        weights = self.spec.tiers[depth + 1].weights
        groups: dict[str, list] = {}
        group_weights: dict[str, list] = {}
        for index, server in enumerate(downstream):
            groups.setdefault(server.zone, []).append(server)
            if weights is not None:
                group_weights.setdefault(server.zone, []).append(
                    weights[index])
        zone_balancers = {
            group: self._balancer(
                "{}.{}.lb".format(owner, group), groups[group],
                group_weights.get(group), depth, link_factory)[0]
            for group in sorted(groups)}
        home_zone = (zone if zone in zone_balancers
                     else sorted(zone_balancers)[0])
        router = ZoneRouter(self.env, owner + ".zones", zone_balancers,
                            home_zone=home_zone)
        self.system.zone_routers.append(router)
        return router

    def _level(self, owner: str, depth: int, dispatcher):
        """Wrap a mid-tier dispatcher in its boundary's leveling queue.

        The frontend boundary (depth 0) integrates leveling natively
        inside :class:`~repro.tiers.base.FrontendTier` — the worker
        answers the client while drains dispatch — so only deeper
        boundaries take the request/reply wrapper.
        """
        leveling = self.spec.boundaries[depth].leveling
        if depth == 0 or leveling is None:
            return dispatcher
        leveled = LevelingDispatcher(self.env, dispatcher, leveling,
                                     name=owner + ".leveling")
        self.system.levelers.append(leveled.queue)
        return leveled

    def _factories(self, depth: int):
        """Resolve the policy/mechanism pair for one balanced boundary."""
        if depth == 0 and (self.policy_factory is not None
                           or self.mechanism_factory is not None):
            if self.policy_factory is None or self.mechanism_factory is None:
                raise ConfigurationError(
                    "pass both policy_factory and mechanism_factory")
            return self.policy_factory, self.mechanism_factory
        bundle = self.spec.boundaries[depth].bundle
        if bundle is not None:
            bundle = get_bundle(bundle)
            return bundle.make_policy, bundle.make_mechanism
        raise ConfigurationError(
            "balanced boundary {} names no policy bundle (set its bundle, "
            "or pass policy/mechanism factories for boundary 0)".format(
                depth))

    def _resilience(self, depth: int) -> Optional["ResilienceConfig"]:
        """Resolve one boundary's resilience configuration.

        At boundary 0 a ``resilience`` carrying hedge, breaker or probes
        replaces the spec's bundle, so the spec may not name one too
        (the rule ``ExperimentConfig.spec()`` applies to the control
        plane).  A retry-only ``resilience`` drives the clients and
        leaves the spec's bundle wired.
        """
        named = self.spec.boundaries[depth].resilience
        resilience = self.resilience
        if depth == 0 and resilience is not None and (
                resilience.hedge is not None
                or resilience.breaker is not None
                or resilience.probes is not None):
            if named is not None:
                raise ConfigurationError(
                    "boundary 0: resilience is set by both the topology "
                    "({!r}) and ExperimentConfig.resilience".format(named))
            return resilience
        if named is not None:
            from repro.resilience import get_resilience

            return get_resilience(named)
        return None

    def _wire_resilience(self, balancer: LoadBalancer, resilience):
        """Install the configured remedies around one balancer.

        Returns the dispatcher the upstream server should use: the
        balancer itself, or its hedging wrapper.
        """
        if resilience is None:
            return balancer
        env, system = self.env, self.system
        if resilience.breaker is not None:
            from repro.resilience.breaker import CircuitBreaker

            balancer.install_breakers([
                CircuitBreaker(env, resilience.breaker)
                for _ in balancer.members
            ])
        if resilience.probes is not None:
            from repro.resilience.probes import HealthProber

            system.probers.append(HealthProber(
                env, balancer.members, resilience.probes, rng=self.rng,
                name=balancer.name + ".prober"))
        if resilience.hedge is not None:
            from repro.resilience.hedge import HedgingDispatcher

            hedger = HedgingDispatcher(env, balancer, resilience.hedge)
            system.hedgers.append(hedger)
            return hedger
        return balancer

    def _link_factory(self, owner: str, owner_zone: Optional[str],
                      boundary):
        """Build the member-link factory for one upstream dispatcher.

        Returns ``None`` when every hop is intra-zone with no boundary
        override — the dispatcher then builds its legacy fixed-latency
        links and the construction stays byte-identical to the
        zone-free world.
        """
        env, spec = self.env, self.spec
        zoned = bool(spec.zones)
        if not zoned and boundary.link is None:
            return None

        def make_link(server) -> Link:
            target_zone = getattr(server, "zone", None)
            profile_spec = None
            pair = None
            if zoned and owner_zone is not None \
                    and target_zone is not None \
                    and owner_zone != target_zone:
                pair = tuple(sorted((owner_zone, target_zone)))
                profile_spec = (boundary.link
                                if boundary.link is not None
                                else _wan_profile_between(
                                    spec, owner_zone, target_zone))
            elif not zoned and boundary.link is not None:
                # Zone-free topology with an explicit boundary link:
                # every hop on the boundary is a (uniform) WAN hop.
                profile_spec = boundary.link
            if profile_spec is None:
                return Link(env, name="{}->{}".format(owner, server.name))
            link_name = "{}=>{}".format(owner, server.name)
            link = Link(env, profile_spec.latency, name=link_name,
                        profile=profile_spec.runtime(name=link_name),
                        rng=self.rng, zone_pair=pair)
            self.system.wan_links.append(link)
            return link

        return make_link


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


def _make_host(env: "Environment", tier: TierSpec, index: int) -> Host:
    kwargs = {}
    if tier.disk_bandwidth is not None:
        kwargs["disk_bandwidth"] = tier.disk_bandwidth
    if tier.flush is not None:
        kwargs["flush_profile"] = tier.flush.profile(index)
    return Host(env, "{}{}".format(tier.name, index + 1),
                cores=tier.cores, **kwargs)
