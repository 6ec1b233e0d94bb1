"""Chaos suite tests: grid construction, report shape, determinism,
and the two headline acceptance scenarios for the resilience layer."""

from dataclasses import replace

import pytest

from repro.cluster import (
    CHAOS_DURATION,
    FAULT_SCENARIOS,
    ZONE_FAULT_KEYS,
    ChaosSuite,
    CrashFault,
    ExperimentRunner,
    PacketLossFault,
    ScaleProfile,
    all_remedy_keys,
    fault_horizon,
    fault_specs,
    get_topology,
    resolve_remedy,
)
from repro.analysis.report import chaos_table
from repro.controlplane import CONTROLPLANE_BUNDLES
from repro.core import MemberState
from repro.errors import ConfigurationError
from repro.parallel import run_experiments
from repro.resilience import RESILIENCE_BUNDLES


def _label(labels):
    return "|".join(labels.values())


class TestFaultScenarios:
    def test_registry_keys(self):
        assert set(FAULT_SCENARIOS) == {
            "none", "crash", "transient_crash", "slow", "packet_loss",
            "link_latency", "burst", "recurring_slow",
            "zone_outage", "wan_degradation",
        }
        assert ZONE_FAULT_KEYS == {"zone_outage", "wan_degradation"}
        assert ZONE_FAULT_KEYS < set(FAULT_SCENARIOS)

    def test_windows_scale_with_duration(self):
        for duration in (8.0, 40.0):
            (spec,) = fault_specs("crash", duration)
            assert isinstance(spec, CrashFault)
            assert spec.at == pytest.approx(0.25 * duration)
            (spec,) = fault_specs("packet_loss", duration)
            assert isinstance(spec, PacketLossFault)
            assert spec.duration == pytest.approx(0.35 * duration)

    def test_none_is_empty(self):
        assert fault_specs("none", 12.0) == ()

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            fault_specs("gremlins", 12.0)


class TestSuiteConstruction:
    def test_defaults(self):
        suite = ChaosSuite()
        # Zone faults need a zoned topology, so the default grid skips
        # them (they have no target in the classic build).
        assert suite.fault_keys == sorted(
            set(FAULT_SCENARIOS) - ZONE_FAULT_KEYS)
        assert suite.remedy_keys == ["none", "full"]
        assert suite.bundle_keys == ["original_total_request",
                                     "current_load_modified"]
        assert suite.duration == CHAOS_DURATION
        assert suite.base.profile == ScaleProfile.smoke()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosSuite(fault_keys=["gremlins"])
        with pytest.raises(ConfigurationError):
            ChaosSuite(remedy_keys=["prayer"])
        with pytest.raises(ConfigurationError):
            ChaosSuite(bundle_keys=["nope"])
        with pytest.raises(ConfigurationError):
            ChaosSuite(duration=0.0)

    def test_unknown_remedy_error_lists_both_registries(self):
        """The remedy namespace spans resilience and control-plane
        bundles; a typo's error message must advertise all of them."""
        with pytest.raises(ConfigurationError) as excinfo:
            ChaosSuite(remedy_keys=["prayer"])
        message = str(excinfo.value)
        for key in ("breaker", "full", "admission+leveling",
                    "autoscale_fast"):
            assert key in message

    def test_all_remedy_keys_is_sorted_union(self):
        keys = all_remedy_keys()
        assert keys == sorted(keys)
        assert set(keys) == set(RESILIENCE_BUNDLES) | set(
            CONTROLPLANE_BUNDLES)

    def test_resolve_remedy_partitions_the_namespace(self):
        """Each remedy key yields exactly one of (resilience,
        controlplane) — or neither, for the shared "none" key."""
        for key in all_remedy_keys():
            resilience, controlplane = resolve_remedy(key)
            if key == "none":
                assert resilience is None and controlplane is None
            else:
                assert (resilience is None) != (controlplane is None)

    def test_grid_is_fault_major(self):
        suite = ChaosSuite(fault_keys=["none", "crash"],
                           remedy_keys=["none", "breaker"],
                           bundle_keys=["current_load_modified"])
        labels = [_label(labels) for labels, _ in suite.cells()]
        assert labels == [
            "none|none|current_load_modified",
            "none|breaker|current_load_modified",
            "crash|none|current_load_modified",
            "crash|breaker|current_load_modified",
        ]

    def test_cell_config_wiring(self):
        profile = ScaleProfile.smoke()
        suite = ChaosSuite(fault_keys=["none", "crash"],
                           remedy_keys=["none", "breaker"],
                           bundle_keys=["current_load_modified"],
                           duration=7.0, seed=9, profile=profile)
        by_label = {_label(labels): config
                    for labels, config in suite.cells()}
        unremedied = by_label["none|none|current_load_modified"]
        # A remedy-free cell is the seed system: no resilience config at
        # all, so the wiring stays event-for-event identical.
        assert unremedied.resilience is None
        assert unremedied.faults == ()
        remedied = by_label["crash|breaker|current_load_modified"]
        assert remedied.resilience == RESILIENCE_BUNDLES["breaker"]
        assert remedied.controlplane is None
        assert len(remedied.faults) == 1
        for config in by_label.values():
            assert config.duration == 7.0
            assert config.seed == 9
            assert config.profile == profile
            assert not config.trace_balancers

    def test_controlplane_remedy_wiring(self):
        """A control-plane remedy key sets ``config.controlplane`` and
        leaves ``config.resilience`` untouched — the two remedy axes
        never mix inside one cell."""
        suite = ChaosSuite(fault_keys=["crash"],
                           remedy_keys=["none", "admission+leveling"],
                           bundle_keys=["current_load_modified"])
        by_label = {_label(labels): config
                    for labels, config in suite.cells()}
        remedied = by_label["crash|admission+leveling|current_load_modified"]
        assert remedied.controlplane == CONTROLPLANE_BUNDLES[
            "admission+leveling"]
        assert remedied.resilience is None
        bare = by_label["crash|none|current_load_modified"]
        assert bare.controlplane is None
        assert bare.resilience is None


class TestTopologyCells:
    def test_cells_run_the_specs_declared_workload(self):
        """``--topology`` cells build the spec and run its declared
        workload, not the smoke profile's client count."""
        spec = get_topology("geo")
        suite = ChaosSuite(fault_keys=["none"], remedy_keys=["none"],
                           bundle_keys=["current_load_modified"],
                           duration=0.5, topology=spec)
        ((_, config),) = suite.cells()
        assert config.topology == spec
        result = ExperimentRunner(config).run()
        assert len(result.population) == spec.workload.clients
        assert spec.workload.clients != ScaleProfile.smoke().clients

    def test_topology_and_profile_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            ChaosSuite(topology=get_topology("geo"),
                       profile=ScaleProfile.smoke())


class TestChaosReport:
    @pytest.fixture(scope="class")
    def report(self):
        suite = ChaosSuite(fault_keys=["crash"], remedy_keys=["none"],
                           bundle_keys=["original_total_request",
                                        "current_load_modified"],
                           duration=6.0)
        return suite.run()

    def test_rows_carry_grid_keys_and_metrics(self, report):
        assert [labels["bundle"] for labels, _ in report] == [
            "original_total_request", "current_load_modified"]
        for labels, run in report:
            assert labels["fault"] == "crash"
            assert labels["remedy"] == "none"
            assert 0.0 <= run.availability() <= 1.0
            assert run.stats().count > 0
            # No retry/hedge remedy: essentially one attempt per logical
            # request (in-flight work at run end leaves a tiny residue).
            assert 1.0 <= run.retry_amplification() < 1.01

    def test_rows_carry_shed_and_recovery_columns(self, report):
        for _, run in report:
            # No admission/leveling remedy in this grid: nothing sheds.
            assert run.sheds == 0
            assert run.shed_pct() == 0.0
            # A permanent crash has no fault end, so time-to-recover is
            # undefined rather than infinite.
            assert run.ttr is None

    def test_render_table_shape(self, report):
        lines = chaos_table(report).splitlines()
        header = lines[0].split()
        assert header[:3] == ["fault", "remedy", "bundle"]
        assert "shed%" in header and "ttr" in header
        assert set(lines[1]) == {"-"}
        assert len(lines) == 2 + len(report)


class TestRecoveryMetric:
    def test_fault_horizon_spans_specs(self):
        specs = fault_specs("transient_crash", 12.0)
        horizon = fault_horizon(specs)
        assert horizon is not None
        start, end = horizon
        assert 0.0 <= start < end <= 12.0
        # A WAN brown-out's ``jitter`` is the degraded link's latency
        # jitter, not a crash-start offset: its window ends on time.
        (wan,) = fault_specs("wan_degradation", 3.0)
        assert wan.jitter > 0.0
        assert fault_horizon((wan,)) == (wan.at, wan.at + wan.duration)
        # A zone outage's members crash within its jitter bound.
        (zone,) = fault_specs("zone_outage", 3.0)
        assert fault_horizon((zone,)) == (
            zone.at, zone.at + zone.duration + zone.jitter)

    def test_permanent_fault_has_no_horizon(self):
        assert fault_horizon(fault_specs("crash", 12.0)) is None
        assert fault_horizon(()) is None

    def test_transient_fault_rows_report_finite_or_inf_ttr(self):
        suite = ChaosSuite(fault_keys=["transient_crash"],
                           remedy_keys=["none"],
                           bundle_keys=["current_load_modified"],
                           duration=6.0)
        ((_, run),) = suite.run()
        ttr = run.ttr
        assert ttr is not None
        assert ttr >= 0.0  # inf compares fine here


class TestDeterminism:
    def test_rows_identical_serial_and_parallel(self):
        """Same seed => identical results under workers=1 and workers=N.

        Fault schedules draw from their own seed-derived RNG stream, so
        fanning cells out over a process pool must not change a single
        metric.
        """
        suite = ChaosSuite(fault_keys=["burst"], remedy_keys=["full"],
                           bundle_keys=["original_total_request",
                                        "current_load_modified"],
                           duration=6.0)
        serial = suite.run(workers=1)
        parallel = suite.run(workers=2)
        assert serial == parallel


class TestAcceptance:
    def test_breaker_tames_vlrt_under_millibottleneck_and_loss(self):
        """Headline demo: with millibottlenecks plus a 1% packet-loss
        window at full scale, the remedied stack (current_load +
        modified mechanism + circuit breaker) keeps %VLRT below 1%
        while the paper's baseline (total_request + original mechanism,
        no remedies) exceeds 5%."""
        profile = replace(ScaleProfile(), tomcat_disk_bandwidth=4e6)
        suite = ChaosSuite(fault_keys=["packet_loss"],
                           remedy_keys=["none", "breaker"],
                           bundle_keys=["original_total_request",
                                        "current_load_modified"],
                           duration=10.0, profile=profile)
        wanted = {"packet_loss|none|original_total_request",
                  "packet_loss|breaker|current_load_modified"}
        configs = [config for labels, config in suite.cells()
                   if _label(labels) in wanted]
        baseline, remedied = run_experiments(configs, workers=2)
        assert 100.0 * baseline.stats().vlrt_fraction > 5.0
        assert 100.0 * remedied.stats().vlrt_fraction < 1.0

    def test_permanent_crash_excluded_millibottleneck_not(self):
        """A permanently crashed member escalates to Error and stays
        excluded for the rest of the run; members that merely
        millibottleneck never reach Error."""
        suite = ChaosSuite(fault_keys=["crash"], remedy_keys=["none"],
                           bundle_keys=["current_load_modified"])
        ((_, config),) = suite.cells()
        (spec,) = config.faults
        config = replace(config, trace_balancers=True)
        result = ExperimentRunner(config).run()
        # The run actually exhibited millibottlenecks.
        assert len(result.system.millibottleneck_records()) > 0
        for balancer in result.system.balancers:
            crashed = balancer.member_named(spec.server)
            assert crashed.state is MemberState.ERROR
            # Dispatches to the dead member stop shortly after the
            # crash; the last half of the run sees none at all.
            counts = balancer.distribution_between(
                config.duration / 2, config.duration)
            assert counts[crashed.name] == 0
            for member in balancer.members:
                if member is not crashed:
                    assert member.state is not MemberState.ERROR
                    assert counts[member.name] > 0
