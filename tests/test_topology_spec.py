"""Declarative topologies: spec validation, builder equivalence, end-to-end.

Three layers of protection for the spec-driven builder:

* **golden equivalence** — :meth:`TopologySpec.classic` given as a
  config's ``topology`` reproduces the committed full-stack golden
  trace (seed 99) *and* matches the config without one (which builds
  the classic spec itself) event-for-event at the paper seed;
* **eager validation** — malformed specs (zero replicas, unknown policy
  bundles, empty tier lists, mis-ordered service models, inline
  fan-out) fail at construction with ``ConfigurationError``\\ s that
  name the offending field, never at build or run time;
* **new shapes actually run** — the replicated-DB and 4-tier built-ins
  run end-to-end through :class:`ExperimentRunner` with the full
  conservation/accounting invariant suite holding, millibottlenecks
  firing, and every replica of every tier taking traffic.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner, Grid
from repro.cluster.spec import (
    BUILTIN_TOPOLOGIES,
    BoundarySpec,
    FlushSpec,
    TierSpec,
    TopologySpec,
    WorkloadSpec,
    get_topology,
)
from repro.cluster.topology import (
    BOUNDARY_POOL_SIZE,
    build_from_spec,
    replica_factory_for,
)
from repro.errors import ConfigurationError
from repro.resilience import RESILIENCE_BUNDLES
from repro.sim.core import Environment

from tests.test_golden_trace import SCENARIO_EVENTS, SCENARIO_SHA256, trace_hash
from tests.test_invariants import assert_all_invariants

EXAMPLE_TOPOLOGIES = (Path(__file__).resolve().parent.parent
                      / "examples" / "topologies")


def traced_run(config):
    """Run one experiment with the kernel trace hook installed."""
    env = Environment()
    records = []
    env.trace = lambda when, event: records.append(
        (when, type(event).__name__))
    ExperimentRunner(config).run(env=env)
    return records


def frontend(name="web", **kwargs):
    return TierSpec(name=name, service="frontend", **kwargs)


def worker(name="app", **kwargs):
    return TierSpec(name=name, service="worker", **kwargs)


def pooled(name="db", **kwargs):
    return TierSpec(name=name, service="pooled", **kwargs)


# -- golden equivalence -----------------------------------------------------

class TestClassicEquivalence:
    def test_spec_path_reproduces_committed_golden_trace(self):
        """The seed-99 full-stack golden trace, built from the spec."""
        profile = replace(ScaleProfile.smoke(), clients=120,
                          flush_threshold_bytes=32e3)
        records = traced_run(ExperimentConfig(
            bundle_key="current_load",
            topology=TopologySpec.classic(profile),
            duration=6.0, seed=99,
            trace_balancers=False))
        assert len(records) == SCENARIO_EVENTS
        assert trace_hash(records) == SCENARIO_SHA256

    def test_spec_path_matches_classic_path_event_for_event(self):
        """A config without a topology builds the classic spec of its
        profile: identical full event schedules at the same seed."""
        profile = ScaleProfile.smoke()
        base = dict(bundle_key="current_load",
                    duration=4.0, seed=20170601,
                    trace_balancers=False)
        default = traced_run(ExperimentConfig(profile=profile, **base))
        from_spec = traced_run(ExperimentConfig(
            topology=TopologySpec.classic(profile), **base))
        assert default == from_spec

    def test_spec_builder_wires_the_fig14_topology(self):
        env = Environment()
        system = build_from_spec(
            env, ExperimentConfig(bundle_key="current_load").spec(),
            rng=np.random.default_rng(0))
        assert system.tier_names == ("apache", "tomcat", "mysql")
        assert [s.name for s in system.tiers["apache"]] == [
            "apache1", "apache2", "apache3", "apache4"]
        assert system.frontends == system.tiers["apache"]
        assert len(system.balancers) == 4
        assert system.spec.name == "classic"

    def test_balanced_boundary_without_bundle_needs_a_default(self):
        with pytest.raises(ConfigurationError):
            build_from_spec(Environment(), TopologySpec.classic(),
                            rng=np.random.default_rng(0))


# -- spec validation --------------------------------------------------------

class TestTierSpecValidation:
    def test_zero_replicas(self):
        with pytest.raises(ConfigurationError):
            worker(replicas=0)

    def test_unknown_service_model(self):
        with pytest.raises(ConfigurationError):
            TierSpec(name="x", service="mainframe")

    def test_capacity_cores_backlog_bounds(self):
        for kwargs in ({"capacity": 0}, {"cores": 0}, {"backlog": 0},
                       {"disk_bandwidth": -1.0}):
            with pytest.raises(ConfigurationError):
                worker(**kwargs)

    def test_empty_name(self):
        with pytest.raises(ConfigurationError):
            TierSpec(name="", service="worker")

    def test_default_cpu_source_follows_service_model(self):
        assert frontend().effective_cpu_source == "apache_cpu"
        assert worker().effective_cpu_source == "tomcat_cpu"
        assert pooled().effective_cpu_source == "mysql_cpu"
        assert worker(cpu_source="mysql_cpu").effective_cpu_source == \
            "mysql_cpu"

    def test_flush_spec_bounds(self):
        for kwargs in ({"interval": 0}, {"threshold_bytes": 0},
                       {"stagger": -1}, {"phase": -0.5}):
            with pytest.raises(ConfigurationError):
                FlushSpec(**kwargs)

    def test_flush_profile_staggers_replicas(self):
        flush = FlushSpec(interval=4.0, stagger=1.0, phase=0.5)
        assert [flush.profile(i).phase for i in range(3)] == [0.5, 1.5, 2.5]


class TestBoundarySpecValidation:
    def test_unknown_policy_bundle_name(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(bundle="nope")

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(mode="teleport")

    def test_unknown_resilience_bundle(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(resilience="nope")

    def test_client_retry_bundle_rejected(self):
        """A boundary wires hedge, breaker and probes only; a bundle
        whose ``retry`` part configures clients would build nothing
        there, so it fails fast instead."""
        for key in ("retry", "full"):
            with pytest.raises(ConfigurationError) as err:
                BoundarySpec(resilience=key)
            assert "ExperimentConfig.resilience" in str(err.value)
        for key in ("hedge", "breaker", "probes", "breaker+probes"):
            assert BoundarySpec(resilience=key).resilience == key

    def test_non_balanced_modes_take_no_bundles(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(mode="direct", bundle="current_load")
        with pytest.raises(ConfigurationError):
            BoundarySpec(mode="inline", resilience="paper_remedies")

    def test_pool_size_bound(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec(pool_size=0)

    @pytest.mark.parametrize("mode", ["direct", "inline", "sharded"])
    def test_pool_size_needs_a_balancer(self, mode):
        """Only balanced boundaries own endpoint pools; a pool size
        anywhere else would be silently ignored."""
        with pytest.raises(ConfigurationError, match="pool_size"):
            BoundarySpec(mode=mode, pool_size=3)


class TestTopologySpecValidation:
    def test_empty_tier_list(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(name="x", tiers=(), boundaries=())

    def test_single_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(name="x", tiers=(frontend(),), boundaries=())

    def test_duplicate_tier_names(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(name="x",
                         tiers=(frontend("web"), worker("web")),
                         boundaries=(BoundarySpec(),))

    def test_boundary_count_must_match(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(name="x", tiers=(frontend(), worker()),
                         boundaries=())

    def test_first_tier_must_be_frontend(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(name="x", tiers=(worker(), pooled()),
                         boundaries=(BoundarySpec(),))

    def test_frontend_only_first(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(name="x",
                         tiers=(frontend("a"), frontend("b")),
                         boundaries=(BoundarySpec(),))

    def test_pooled_must_be_last(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(
                name="x",
                tiers=(frontend(), pooled("cache"), worker()),
                boundaries=(BoundarySpec(), BoundarySpec()))

    def test_inline_boundary_cannot_fan_out(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(
                name="x",
                tiers=(frontend(), worker(), pooled(replicas=2)),
                boundaries=(BoundarySpec(),
                            BoundarySpec(mode="inline")))

    def test_inline_needs_worker_upstream(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(
                name="x", tiers=(frontend(), pooled()),
                boundaries=(BoundarySpec(mode="inline"),))

    def test_workload_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(clients=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(think_time=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(ramp_up=-1)


class TestSerialisation:
    @pytest.mark.parametrize("key", sorted(BUILTIN_TOPOLOGIES))
    def test_round_trip_through_dict_and_json(self, key):
        spec = get_topology(key)
        assert TopologySpec.from_dict(spec.to_dict()) == spec
        assert TopologySpec.from_json(spec.to_json()) == spec

    def test_unknown_topology_field_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.from_dict({"name": "x", "tiers": [], "shape": "Y"})

    def test_unknown_tier_field_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.from_dict({
                "name": "x",
                "tiers": [{"name": "web", "service": "frontend",
                           "max_clients": 8}]})

    def test_unknown_boundary_field_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.from_dict({
                "name": "x",
                "tiers": [{"name": "web", "service": "frontend"},
                          {"name": "app", "service": "worker"}],
                "boundaries": [{"policy": "current_load"}]})

    def test_missing_boundaries_default_to_balanced(self):
        spec = TopologySpec.from_dict({
            "name": "x",
            "tiers": [{"name": "web", "service": "frontend"},
                      {"name": "app", "service": "worker"}]})
        assert spec.boundaries == (BoundarySpec(mode="balanced"),)

    def test_invalid_json_named(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.from_json("{not json")

    @pytest.mark.parametrize(
        "key", ["classic", "four_tier", "replicated_db", "geo"])
    def test_example_file_matches_builtin(self, key):
        """The shipped spec files are the builtins, field for field."""
        assert TopologySpec.load(EXAMPLE_TOPOLOGIES / (key + ".json")) \
            == get_topology(key)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(get_topology("replicated_db").to_json())
        assert TopologySpec.load(path) == get_topology("replicated_db")

    def test_get_topology_unknown(self):
        with pytest.raises(ConfigurationError):
            get_topology("nope")


# -- new shapes run end-to-end ---------------------------------------------

def run_topology(key, duration=4.0, seed=7):
    spec = get_topology(key)
    config = ExperimentConfig(
        topology=spec, duration=duration, seed=seed,
        trace_balancers=False)
    return ExperimentRunner(config).run()


class TestReplicatedDbTopology:
    def test_runs_with_invariants_and_balanced_db_traffic(self):
        result = run_topology("replicated_db")
        assert_all_invariants(result)
        assert result.stats().count > 0
        # Both balancing layers exist: one LB per Apache *and* per Tomcat.
        assert len(result.system.balancers) == 4
        names = {balancer.name for balancer in result.system.balancers}
        assert {"apache1.lb", "apache2.lb",
                "tomcat1.lb", "tomcat2.lb"} == names
        # Every MySQL replica took traffic through its own balancer.
        for replica in result.system.tiers["mysql"]:
            assert replica.requests_completed > 0, replica.name

    def test_app_tier_millibottlenecks_recorded(self):
        # 6 s horizon: the first flush stall lands after ~4 s.
        result = run_topology("replicated_db", duration=6.0)
        stalled = {record.host for record in
                   result.system.millibottleneck_records()}
        assert any(host.startswith("tomcat") for host in stalled)


class TestFourTierTopology:
    def test_runs_with_invariants_across_four_tiers(self):
        result = run_topology("four_tier")
        assert_all_invariants(result)
        assert result.stats().count > 0
        assert result.system.tier_names == ("web", "service", "backend", "db")
        # Traffic reaches every replica of every tier.
        for tier_name in result.system.tier_names:
            for server in result.system.tiers[tier_name]:
                assert server.requests_completed > 0, server.name

    def test_mid_tier_stall_cascades_to_clients(self):
        result = run_topology("four_tier", duration=6.0)
        stalled = {record.host for record in
                   result.system.millibottleneck_records()}
        assert stalled and all(host.startswith("backend")
                               for host in stalled)


# -- the spec is the run ----------------------------------------------------

class TestSpecIsTheRun:
    """A topology run takes its workload and endpoint pools from the
    spec alone; a second description of the deployment fails fast."""

    def test_topology_runs_its_declared_clients(self):
        spec = get_topology("replicated_db")
        result = ExperimentRunner(ExperimentConfig(
            topology=spec, duration=0.5)).run()
        assert len(result.population) == spec.workload.clients == 160

    def test_topology_with_a_profile_raises(self):
        with pytest.raises(ConfigurationError, match="profile"):
            ExperimentConfig(topology=get_topology("replicated_db"),
                             profile=ScaleProfile.smoke())

    def test_profile_axis_over_a_topology_raises_at_grid(self):
        base = ExperimentConfig(topology=get_topology("replicated_db"))
        with pytest.raises(ConfigurationError, match="profile"):
            Grid(base, {"clients": {"60": {"profile.clients": 60}}})

    def test_pool_sizes_come_from_the_boundaries(self):
        spec = get_topology("replicated_db")
        boundaries = list(spec.boundaries)
        boundaries[1] = replace(boundaries[1], pool_size=3)
        system = build_from_spec(
            Environment(), replace(spec, boundaries=tuple(boundaries)),
            rng=np.random.default_rng(0))
        pools = {balancer.name: {member.pool.capacity
                                 for member in balancer.members}
                 for balancer in system.balancers}
        assert pools == {"apache1.lb": {BOUNDARY_POOL_SIZE},
                         "apache2.lb": {BOUNDARY_POOL_SIZE},
                         "tomcat1.lb": {3}, "tomcat2.lb": {3}}

    def test_classic_carries_the_profile_pool(self):
        profile = replace(ScaleProfile.smoke(), connection_pool_size=4)
        (balanced, _) = TopologySpec.classic(profile).boundaries
        assert balanced.pool_size == 4
        direct = TopologySpec.classic(profile, use_balancer=False)
        assert direct.boundaries[0].pool_size is None


class TestBoundaryZeroResilience:
    """A spec's boundary-0 remedy bundle against
    ``ExperimentConfig.resilience``: a config carrying hedge, breaker
    or probes conflicts with it, a retry-only config leaves it wired."""

    @staticmethod
    def hedged_config(resilience=None):
        spec = TopologySpec.classic(ScaleProfile.smoke())
        boundaries = list(spec.boundaries)
        boundaries[0] = replace(boundaries[0], resilience="hedge")
        return ExperimentConfig(
            topology=replace(spec, boundaries=tuple(boundaries)),
            resilience=resilience, duration=0.2)

    @pytest.mark.parametrize("key", ["hedge", "breaker", "probes", "full"])
    def test_balancer_side_config_conflicts_with_the_spec(self, key):
        config = self.hedged_config(RESILIENCE_BUNDLES[key])
        with pytest.raises(ConfigurationError, match="boundary 0"):
            ExperimentRunner(config).run()

    def test_retry_only_config_keeps_the_spec_bundle(self):
        alone = ExperimentRunner(self.hedged_config()).run()
        retried = ExperimentRunner(
            self.hedged_config(RESILIENCE_BUNDLES["retry"])).run()
        frontends = len(alone.system.frontends)
        assert len(alone.system.hedgers) == frontends
        assert len(retried.system.hedgers) == frontends
        assert all(client.retry is not None
                   for client in retried.population.clients)


class TestBalancerTraceSwitch:
    """``trace_balancers`` reaches every balancer the builder makes —
    the zone-local ones under a hierarchy included — and every member,
    including one a runtime scale-up adds."""

    @pytest.mark.parametrize("trace", [False, True])
    def test_switch_reaches_every_balancer_and_member(self, trace):
        geo = build_from_spec(
            Environment(),
            ExperimentConfig(topology=get_topology("geo")).spec(),
            rng=np.random.default_rng(0), trace_balancers=trace)
        assert geo.zone_routers
        classic = build_from_spec(
            Environment(),
            ExperimentConfig(profile=ScaleProfile.smoke()).spec(),
            rng=np.random.default_rng(0), trace_balancers=trace)
        added = replica_factory_for(classic, "tomcat")(
            len(classic.tiers["tomcat"]))
        assert all(balancer.members[-1].server is added
                   for balancer in classic.balancers)
        balancers = geo.balancers + classic.balancers
        for balancer in balancers:
            assert (balancer.dispatch_trace is not None) is trace
            assert (balancer.pick_trace is not None) is trace
            for member in balancer.members:
                assert (member.lb_trace is not None) is trace


# -- CLI --------------------------------------------------------------------

class TestTopologyCli:
    def test_validate_builtin_and_file(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(get_topology("replicated_db").to_json())
        assert main(["topology", "validate", "four_tier", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK four_tier (4 tiers, 3 boundaries)" in out
        assert "OK replicated_db (3 tiers, 2 boundaries)" in out

    def test_validate_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "tiers": [{"name": "web", "service": "frontend"},
                      {"name": "app", "service": "worker", "replicas": 0}]}))
        assert main(["topology", "validate", str(path)]) == 2
        assert "replicas" in capsys.readouterr().err

    def test_show_renders_the_chain(self, capsys):
        assert main(["topology", "show", "four_tier"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "inline" in out
        assert "bundle=current_load" in out

    def test_unknown_reference_exits_2(self, capsys):
        assert main(["topology", "show", "nope"]) == 2
        assert "no topology spec file" in capsys.readouterr().err

    def test_run_topology_from_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(get_topology("replicated_db").to_json())
        assert main(["run", "--topology", str(path),
                     "--duration", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "topology:replicated_db" in out
        assert "avg RT" in out

    def test_run_rejects_scenario_plus_topology(self, capsys):
        assert main(["run", "table1/current_load",
                     "--topology", "classic"]) == 2

    def test_run_requires_some_target(self, capsys):
        assert main(["run"]) == 2
