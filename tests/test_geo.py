"""Geo-scale topologies: spec validation, cache/shard tier models, the
zone-hierarchy conservation identities, WAN trace buckets, and the
pinned headline (does hierarchy contain the millibottleneck?)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.faults import (
    FaultInjector,
    WanDegradationFault,
    ZoneOutageFault,
)
from repro.cluster.geo import GEO_FAULTS, GeoSuite
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.scenarios import ChaosSuite, fault_specs
from repro.cluster.spec import (
    BoundarySpec,
    CacheSpec,
    LinkProfileSpec,
    ShardSpec,
    TierSpec,
    TopologySpec,
    WorkloadSpec,
    ZoneLinkSpec,
    ZoneSpec,
    get_topology,
)
from repro.errors import ConfigurationError
from repro.netmodel.sockets import Link, LinkProfile
from repro.osmodel.host import Host
from repro.sim.core import Environment
from repro.tiers.cache import CacheTier
from repro.tiers.shard import ShardRouter
from repro.tracing.critical_path import bucket_for, decompose


def _spec(tiers, boundaries, zones=(), zone_links=(), name="t"):
    return TopologySpec(name=name, tiers=tuple(tiers),
                        boundaries=tuple(boundaries),
                        zones=tuple(zones), zone_links=tuple(zone_links),
                        workload=WorkloadSpec(clients=10))


def _two_tier(**front_kwargs):
    return (
        TierSpec(name="web", service="frontend", replicas=2,
                 **front_kwargs),
        TierSpec(name="db", service="pooled", replicas=1),
    )


# -- spec validation matrix -------------------------------------------------

class TestGeoSpecValidation:
    ZONES = (ZoneSpec(name="east"), ZoneSpec(name="west"))

    def test_unknown_zone_in_placement(self):
        with pytest.raises(ConfigurationError, match="unknown zone"):
            _spec(_two_tier(placement=("east", "mars")),
                  [BoundarySpec(mode="balanced")], zones=self.ZONES)

    def test_placement_without_zones(self):
        with pytest.raises(ConfigurationError):
            _spec(_two_tier(placement=("east", "west")),
                  [BoundarySpec(mode="balanced")])

    def test_placement_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="placement"):
            TierSpec(name="web", service="frontend", replicas=3,
                     placement=("east", "west"))

    def test_link_on_inline_boundary_rejected(self):
        with pytest.raises(ConfigurationError, match="inline"):
            BoundarySpec(mode="inline", link=LinkProfileSpec())

    def test_zone_link_unknown_zone(self):
        with pytest.raises(ConfigurationError):
            _spec(_two_tier(placement=("east", "west")),
                  [BoundarySpec(mode="balanced")], zones=self.ZONES,
                  zone_links=(ZoneLinkSpec(zones=("east", "mars"),
                                           link=LinkProfileSpec()),))

    def test_duplicate_zone_pair(self):
        pair = ZoneLinkSpec(zones=("east", "west"),
                            link=LinkProfileSpec())
        flipped = ZoneLinkSpec(zones=("west", "east"),
                               link=LinkProfileSpec())
        with pytest.raises(ConfigurationError):
            _spec(_two_tier(placement=("east", "west")),
                  [BoundarySpec(mode="balanced")], zones=self.ZONES,
                  zone_links=(pair, flipped))

    def test_zone_link_self_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            ZoneLinkSpec(zones=("east", "east"), link=LinkProfileSpec())

    def test_hierarchy_requires_zones(self):
        with pytest.raises(ConfigurationError):
            _spec(_two_tier(),
                  [BoundarySpec(mode="balanced", hierarchy=True)])

    def test_sharded_needs_pooled_downstream(self):
        tiers = (
            TierSpec(name="web", service="frontend", replicas=1),
            TierSpec(name="app", service="worker", replicas=2),
        )
        with pytest.raises(ConfigurationError):
            _spec(tiers, [BoundarySpec(mode="sharded",
                                       shard=ShardSpec())])

    def test_cache_cannot_be_last(self):
        tiers = (
            TierSpec(name="web", service="frontend", replicas=1),
            TierSpec(name="cache", service="cache", replicas=1,
                     cache=CacheSpec()),
        )
        with pytest.raises(ConfigurationError, match="downstream"):
            _spec(tiers, [BoundarySpec(mode="balanced")])

    def test_cache_spec_on_non_cache_tier(self):
        with pytest.raises(ConfigurationError):
            TierSpec(name="web", service="frontend", replicas=1,
                     cache=CacheSpec())

    def test_placement_conflicts_with_autoscaler(self):
        from repro.controlplane import AutoscalerConfig

        with pytest.raises(ConfigurationError):
            TierSpec(name="app", service="worker", replicas=2,
                     placement=("east", "west"),
                     autoscaler=AutoscalerConfig())

    def test_hierarchy_over_autoscaled_tier_rejected(self):
        """Scale-down retires the newest replica, often the only member
        of its zone's balancer, so the run would crash mid-way; the
        spec refuses the pair when it is built."""
        from repro.controlplane import AutoscalerConfig

        tiers = (
            TierSpec(name="web", service="frontend", replicas=2),
            TierSpec(name="app", service="worker", replicas=2,
                     autoscaler=AutoscalerConfig(min_replicas=1,
                                                 max_replicas=4)),
            TierSpec(name="db", service="pooled", replicas=1),
        )
        with pytest.raises(ConfigurationError, match="autoscaled"):
            _spec(tiers, [BoundarySpec(mode="balanced", hierarchy=True),
                          BoundarySpec(mode="inline")], zones=self.ZONES)


class TestGeoSpecRoundTrip:
    @pytest.mark.parametrize("key", ["geo", "geo_flat"])
    def test_builtin_round_trips(self, key):
        spec = get_topology(key)
        again = TopologySpec.from_json(spec.to_json())
        assert again == spec

    def test_describe_mentions_geo_features(self):
        text = get_topology("geo").describe()
        assert "east" in text and "west" in text
        assert "sharded" in text
        assert "cache" in text
        assert "hierarchy" in text
        assert "hierarchy" not in get_topology("geo_flat").describe()


# -- cache-aside model ------------------------------------------------------

def _cache_tier(env, ttl=60.0, churn=30.0, warmup=5.0, hit_ratio=0.8):
    host = Host(env, "cachehost")
    return CacheTier(env, "cache1", host, max_threads=4,
                     rng=np.random.default_rng(0), hit_ratio=hit_ratio,
                     ttl=ttl, churn=churn, warmup=warmup)


class TestCacheModel:
    def test_hit_ratio_monotone_in_ttl(self):
        env = Environment()
        ratios = [_cache_tier(env, ttl=ttl).effective_hit_ratio(now=100.0)
                  for ttl in (5.0, 20.0, 60.0, 300.0)]
        assert ratios == sorted(ratios)
        assert ratios[0] < ratios[-1]

    def test_warmup_curve_rises_from_cold(self):
        env = Environment()
        tier = _cache_tier(env, warmup=5.0)
        cold = tier.effective_hit_ratio(now=0.0)
        warm = tier.effective_hit_ratio(now=50.0)
        assert cold == pytest.approx(0.0)
        assert warm > 0.9 * tier.hit_ratio * tier.freshness

    def test_recover_resets_warmup(self):
        env = Environment()
        tier = _cache_tier(env)
        env.run(until=30.0)
        warmed = tier.effective_hit_ratio()
        tier.crash()
        tier.recover()
        assert tier.cold_restarts == 1
        assert tier.warm_start == pytest.approx(env.now)
        assert tier.effective_hit_ratio() < warmed

    def test_no_warmup_is_instant(self):
        env = Environment()
        tier = _cache_tier(env, warmup=0.0)
        assert tier.effective_hit_ratio(now=0.0) == pytest.approx(
            tier.hit_ratio * tier.freshness)


# -- consistent-hash shard router -------------------------------------------

class _Shard:
    def __init__(self, name):
        self.name = name

    def submit(self, request, reply):  # pragma: no cover - not dispatched
        reply.succeed(request)


def _router(env, names, **kwargs):
    kwargs.setdefault("virtual_nodes", 64)
    kwargs.setdefault("key_space", 512)
    return ShardRouter(env, "db.shards", [_Shard(n) for n in names],
                       rng=np.random.default_rng(1), **kwargs)


class TestShardRouter:
    def test_ring_is_deterministic(self):
        env = Environment()
        a = _router(env, ["s1", "s2", "s3"])
        b = _router(env, ["s1", "s2", "s3"])
        assert [a.owner(k).name for k in range(512)] == \
               [b.owner(k).name for k in range(512)]

    def test_retire_moves_about_one_nth(self):
        env = Environment()
        router = _router(env, ["s1", "s2", "s3", "s4"])
        before = {k: router.owner(k).name for k in range(512)}
        victim = router.backends[1]
        router.remove_backend(victim)
        moved = 0
        for key in range(512):
            owner = router.owner(key).name
            if before[key] == victim.name:
                moved += 1
                assert owner != victim.name
            else:
                # Consistent hashing: keys not owned by the retired
                # shard keep their owner.
                assert owner == before[key]
        # ~1/4 of the key space reshards (give the hash some slack).
        assert 0.10 < moved / 512 < 0.45
        assert router.retired_backends == [victim]

    def test_join_moves_about_one_nth(self):
        env = Environment()
        router = _router(env, ["s1", "s2", "s3"])
        before = {k: router.owner(k).name for k in range(512)}
        router.add_backend(_Shard("s4"))
        moved = 0
        for key in range(512):
            owner = router.owner(key).name
            if owner != before[key]:
                moved += 1
                # Keys only move *onto* the new shard.
                assert owner == "s4"
        assert 0.05 < moved / 512 < 0.5

    def test_remove_last_shard_rejected(self):
        env = Environment()
        router = _router(env, ["s1"])
        with pytest.raises(ConfigurationError):
            router.remove_backend(router.backends[0])

    def test_zipf_skew_concentrates_keys(self):
        env = Environment()
        uniform = _router(env, ["s1", "s2"], skew=0.0)
        skewed = _router(env, ["s1", "s2"], skew=1.5)
        top_uniform = sum(uniform.draw_key() == 0 for _ in range(2000))
        top_skewed = sum(skewed.draw_key() == 0 for _ in range(2000))
        assert top_skewed > 10 * max(1, top_uniform)


# -- zone fault plumbing ----------------------------------------------------

class TestZoneFaults:
    def test_zone_outage_needs_zoned_topology(self):
        spec = get_topology("classic")
        config = ExperimentConfig(
            topology=spec, duration=2.0,
            trace_balancers=False,
            faults=(ZoneOutageFault("east", at=0.5),))
        with pytest.raises(ConfigurationError, match="zone"):
            ExperimentRunner(config).run()

    def test_chaos_suite_rejects_zone_faults_without_topology(self):
        with pytest.raises(ConfigurationError, match="zone"):
            ChaosSuite(fault_keys=["zone_outage"])

    def test_chaos_suite_accepts_zone_faults_with_geo(self):
        suite = ChaosSuite(fault_keys=["zone_outage"],
                           remedy_keys=["none"],
                           bundle_keys=["current_load_modified"],
                           topology=get_topology("geo"))
        ((_, config),) = suite.cells()
        assert config.topology is not None
        assert isinstance(config.faults[0], ZoneOutageFault)

    def test_wan_degradation_swaps_and_restores(self):
        env = Environment()
        healthy = LinkProfile(latency=0.04, name="wan")
        link = Link(env, 0.04, name="a=>b", profile=healthy,
                    rng=np.random.default_rng(0),
                    zone_pair=("east", "west"))
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(WanDegradationFault("east", "west", at=1.0,
                                            duration=2.0, latency=0.25,
                                            loss=0.05),
                        SimpleNamespace(wan_links=[link]))
        env.run(until=2.0)
        assert link.profile is not healthy
        assert (link.profile.latency, link.profile.loss) == (0.25, 0.05)
        env.run(until=4.0)
        assert link.profile is healthy
        (record,) = injector.records
        assert record.kind == "wan"
        assert record.ended_at == pytest.approx(3.0)

    def test_wan_degradation_without_wan_links(self):
        spec = get_topology("classic")
        config = ExperimentConfig(
            topology=spec, duration=2.0,
            trace_balancers=False,
            faults=(WanDegradationFault("east", "west", at=0.5,
                                        duration=1.0),))
        with pytest.raises(ConfigurationError, match="WAN"):
            ExperimentRunner(config).run()


# -- conservation identities ------------------------------------------------

def _run_geo(fault_key, hierarchy=True, duration=6.0, **config_kwargs):
    spec = TopologySpec.geo(hierarchy=hierarchy, disk_bandwidth=3e6,
                            clients=80)
    config = ExperimentConfig(
        topology=spec, duration=duration, seed=7,
        trace_balancers=False,
        faults=fault_specs(fault_key, duration), **config_kwargs)
    return ExperimentRunner(config).run()


def _assert_geo_conservation(result):
    system, population = result.system, result.population

    # Packets: every packet the clients sent was accepted or dropped.
    sent = population.sender.packets_sent
    accepted = sum(f.socket.accepted for f in system.frontends)
    dropped = population.sender.packets_dropped
    assert sent == accepted + dropped

    # Balancer members (zone-local balancers included): dispatched
    # closes against completed + inflight, live and retired alike.
    for balancer in system.balancers:
        members = (list(balancer.members)
                   + list(getattr(balancer, "retired_members", ())))
        for member in members:
            assert member.inflight >= 0
            assert member.dispatched == member.completed + member.inflight

    # Zone routers: every dispatch either stayed home, spilled, or
    # failed with NoCandidateError (never silently vanished).
    for router in system.zone_routers:
        assert router.spillovers >= 0
        assert (router.local_dispatches + router.spillovers
                <= router.dispatches)

    # Shard routers: totals close, and the per-shard counts sum to the
    # total (retired shards keep their counts).
    for router in system.shard_routers:
        assert router.dispatches == router.completions + router.inflight
        assert sum(router.dispatch_counts.values()) == router.dispatches

    # Per-zone: the same member identities close when restricted to
    # each zone's servers; together the zones cover every member.
    zone_servers = {zone: {s.name for s in system.servers_in_zone(zone)}
                    for zone in system.zone_names}
    seen = set()
    for zone, names in zone_servers.items():
        for balancer in system.balancers:
            for member in balancer.members:
                if member.server.name in names:
                    seen.add(member.name)
                    assert member.dispatched == (member.completed
                                                 + member.inflight)
    all_members = {member.name for balancer in system.balancers
                   for member in balancer.members}
    assert seen == all_members

    # Clients: closed loop, at most one outstanding attempt each.
    in_flight = (population.attempts_issued
                 - population.requests_completed
                 - population.requests_abandoned)
    assert 0 <= in_flight <= len(population)


@pytest.mark.parametrize("hierarchy", [True, False])
@pytest.mark.parametrize("fault_key",
                         ["none", "zone_outage", "wan_degradation"])
def test_geo_conservation(fault_key, hierarchy):
    """Conservation closes per-zone and globally, faulted or not."""
    result = _run_geo(fault_key, hierarchy=hierarchy)
    _assert_geo_conservation(result)
    assert result.stats().count > 0


def test_zone_outage_crashes_every_east_replica():
    result = _run_geo("zone_outage")
    injector = result.fault_injector
    east = {s.name for s in result.system.servers_in_zone("east")}
    assert {record.target for record in injector.records} == east
    assert all(record.ended_at is not None
               for record in injector.records)


# -- trace buckets ----------------------------------------------------------

class TestWanTraceBuckets:
    def test_bucket_mapping(self):
        assert bucket_for("wan.transit") == "wan.transit"
        assert bucket_for("cache.miss_penalty") == "cache.miss_penalty"
        # The cache tier's queue/service spans still attribute by the
        # generic suffix rules.
        assert bucket_for("cache.queue_wait") == "queue_wait.cache"
        assert bucket_for("cache.service") == "service.cache"

    def test_buckets_reconstruct_root_duration(self):
        result = _run_geo("wan_degradation", duration=4.0,
                          trace_requests=True)
        completed = [t for t in result.traces() if t.completed]
        assert completed
        saw_wan = saw_miss = False
        for trace in completed:
            path = decompose(trace)
            assert sum(path.buckets.values()) == pytest.approx(
                trace.duration, abs=1e-9)
            saw_wan = saw_wan or path.buckets.get("wan.transit", 0) > 0
            saw_miss = saw_miss or self._has_span(trace.root,
                                                  "cache.miss_penalty")
        assert saw_wan, "no trace paid WAN transit in a geo run"
        # The miss envelope exists in the tree; its *self* time clips to
        # ~0 because the downstream dispatch span covers its interval —
        # exactly what keeps miss time attributed to the tier that
        # spent it.
        assert saw_miss, "no trace recorded a cache miss envelope"

    def _has_span(self, span, name):
        if span.name == name:
            return True
        return any(self._has_span(child, name)
                   for child in span.children or ())


# -- the pinned headline ----------------------------------------------------

@pytest.fixture(scope="module")
def geo_report():
    """The headline grid at the documented duration and seed."""
    return GeoSuite(duration=8.0).run()


def _row(report, topology, fault):
    for labels, run in report:
        if labels == {"topology": topology, "fault": fault}:
            return run
    raise AssertionError("missing cell {}|{}".format(topology, fault))


class TestGeoHeadline:
    def test_grid_shape(self, geo_report):
        assert len(geo_report) == 6
        assert sorted(GEO_FAULTS) == ["cache_failover", "wan_degradation",
                                      "zone_outage"]

    def test_zone_outage_hierarchy_beats_flat(self, geo_report):
        """Headline cell: east dies, the surviving zone's disks are
        starved.  The zone-local hierarchy contains the fault — fewer
        VLRTs and fewer drops than one flat global balancer, which
        keeps probing dead east members from every frontend."""
        hier = _row(geo_report, "geo", "zone_outage")
        flat = _row(geo_report, "geo_flat", "zone_outage")
        assert hier.vlrt_pct() < flat.vlrt_pct()
        assert hier.drops < flat.drops

    def test_wan_degradation_hierarchy_contains(self, geo_report):
        """Locality-first routing crosses the browned-out WAN less, so
        hierarchy pays fewer degraded hops than the flat balancer's
        50/50 spread."""
        hier = _row(geo_report, "geo", "wan_degradation")
        flat = _row(geo_report, "geo_flat", "wan_degradation")
        assert hier.vlrt_pct() < flat.vlrt_pct()
        assert hier.wan_retransmits <= flat.wan_retransmits

    def test_cache_failover_spills_only_under_hierarchy(self, geo_report):
        hier = _row(geo_report, "geo", "cache_failover")
        flat = _row(geo_report, "geo_flat", "cache_failover")
        assert hier.spillovers > 0
        assert flat.spillovers == 0
        assert hier.cache_cold_restarts >= 1
        assert flat.cache_cold_restarts >= 1

    def test_cache_failover_vlrts_stay_at_the_client_edge(self,
                                                          geo_report):
        """The warm-up hypothesis — a cold cache moves the VLRT
        clustering one tier down (DB queue wait behind the missing hit
        ratio) — is *refuted* at this scale: the trace decomposition
        still attributes VLRT time to retransmission backoff at the
        client edge, not to ``cache.miss_penalty`` or DB queue wait.
        The miss envelope's self-time stays near zero because child
        clipping hands the downstream work to the downstream buckets."""
        run = _row(geo_report, "geo", "cache_failover")
        buckets = run.vlrt_buckets
        assert buckets is not None
        retransmission = buckets["retransmission"]
        assert retransmission > buckets.get("cache.miss_penalty", 0.0)
        assert retransmission > buckets.get("queue_wait.mysql", 0.0)
