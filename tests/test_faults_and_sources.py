"""Tests for fault injection and alternative millibottleneck sources."""

import numpy as np
import pytest

from repro.cluster import (
    CorrelatedCrashFault,
    CrashFault,
    ExperimentConfig,
    FaultInjector,
    LinkLatencyFault,
    PacketLossFault,
    RecurringFault,
    ScaleProfile,
    SlowFault,
    WanDegradationFault,
    ZoneOutageFault,
    build_from_spec,
)
from repro.core import MemberState, StateConfig
from repro.errors import ConfigurationError
from repro.osmodel import (
    GarbageCollectionSource,
    Host,
    TransientStallInjector,
)
from repro.sim import Environment
from repro.netmodel import RetransmissionPolicy
from repro.workload import ClientPopulation, read_write_mix


def classic_spec(profile, **flags):
    """The classic spec of ``profile``, balanced by current_load_modified."""
    return ExperimentConfig(bundle_key="current_load_modified",
                            profile=profile, **flags).spec()


class TestTransientStallInjector:
    def test_injects_and_records_ground_truth(self):
        env = Environment()
        host = Host(env, "h1", cores=2)
        injector = TransientStallInjector(
            host, interval=lambda: 1.0, duration=lambda: 0.1, label="x")
        env.run(until=3.5)
        assert injector.stalls_injected == 3
        records = host.millibottlenecks
        assert [round(r.started_at, 1) for r in records] == [1.0, 2.1, 3.2]
        assert all(r.duration == pytest.approx(0.1) for r in records)

    def test_stall_blocks_foreground(self):
        env = Environment()
        host = Host(env, "h1", cores=1)
        TransientStallInjector(host, interval=lambda: 0.5,
                               duration=lambda: 0.2)
        finished = []

        def work(env):
            yield env.timeout(0.55)  # mid-stall
            yield from host.execute(0.001)
            finished.append(env.now)

        env.process(work(env))
        env.run(until=1.0)
        assert finished[0] == pytest.approx(0.701, abs=1e-3)


class TestGcSource:
    def test_gc_pauses_have_plausible_durations(self):
        env = Environment()
        host = Host(env, "jvm", cores=4)
        GarbageCollectionSource(host, np.random.default_rng(0),
                                period=0.5, mean_pause=0.15)
        env.run(until=20.0)
        durations = [r.duration for r in host.millibottlenecks]
        assert len(durations) > 10
        assert 0.05 < float(np.mean(durations)) < 0.4
        # Millibottleneck range: tens to hundreds of milliseconds.
        assert all(0.01 < d < 1.5 for d in durations)

    def test_validation(self):
        env = Environment()
        host = Host(env, "h", cores=1)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            GarbageCollectionSource(host, rng, period=0)


class TestFaultInjector:
    def make_system(self, env, error_recovery=2.0):
        profile = ScaleProfile.smoke()
        system = build_from_spec(
            env, classic_spec(profile, tomcat_millibottlenecks=False),
            rng=np.random.default_rng(0),
            state_config=StateConfig(busy_recheck=0.05,
                                     max_busy_retries=4,
                                     error_recovery=error_recovery),
        )
        population = ClientPopulation(
            env, [a.socket for a in system.frontends],
            total_clients=profile.clients, mix=read_write_mix(),
            rng=np.random.default_rng(0), think_time=profile.think_time,
            retransmission=RetransmissionPolicy())
        return system, population

    def test_crash_escalates_to_error_and_routes_around(self):
        env = Environment()
        system, population = self.make_system(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(CrashFault("tomcat1", at=3.0), system)
        env.run(until=8.0)
        # Every balancer eventually ejects the dead member...
        for balancer in system.balancers:
            assert balancer.members[0].state is MemberState.ERROR
        # ...and the system keeps serving on the survivor.
        for balancer in system.balancers:
            counts = balancer.distribution_between(4.0, 8.0)
            assert counts["tomcat1"] == 0
            assert counts["tomcat2"] > 0
        assert injector.records[0].target == "tomcat1"
        assert injector.records[0].ended_at is None

    def test_recovery_restores_service(self):
        env = Environment()
        system, population = self.make_system(env, error_recovery=1.0)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(CrashFault("tomcat1", at=2.0, duration=2.0), system)
        env.run(until=10.0)
        record = injector.records[0]
        assert record.ended_at == pytest.approx(4.0)
        # After recovery plus the error window, traffic returns.
        for balancer in system.balancers:
            counts = balancer.distribution_between(6.0, 10.0)
            assert counts["tomcat1"] > 0

    def test_crash_differs_from_millibottleneck(self):
        """The conservative remedy's rationale: both look identical at
        first probe, but only the crash should reach Error."""
        env = Environment()
        profile = ScaleProfile.smoke()
        system = build_from_spec(
            env, classic_spec(profile),  # flushing on
            rng=np.random.default_rng(0),
            state_config=StateConfig(busy_recheck=0.05,
                                     max_busy_retries=4,
                                     error_recovery=60.0),
        )
        population = ClientPopulation(
            env, [a.socket for a in system.frontends],
            total_clients=profile.clients, mix=read_write_mix(),
            rng=np.random.default_rng(0), think_time=profile.think_time)
        FaultInjector(env, rng=np.random.default_rng(0)).inject(
            CrashFault("tomcat2", at=3.0), system)
        env.run(until=10.0)
        assert len(system.millibottleneck_records()) > 0
        for balancer in system.balancers:
            # tomcat2 crashed: Error.  tomcat1 only millibottlenecked:
            # never Error.
            assert balancer.members[1].state is MemberState.ERROR
            assert balancer.members[0].state is not MemberState.ERROR

    def test_validation(self):
        env = Environment(initial_time=5.0)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        host = Host(env, "h")
        from repro.tiers import PooledTier
        server = PooledTier(env, "m", host, max_connections=48)
        with pytest.raises(ConfigurationError):
            injector.inject(CrashFault("m", at=1.0), server_system(server))
        with pytest.raises(ConfigurationError):
            injector.inject(CrashFault("m", at=6.0, duration=0),
                            server_system(server))

    def test_crash_recover_flags(self):
        env = Environment()
        host = Host(env, "h")
        from repro.tiers import PooledTier
        server = PooledTier(env, "m", host, max_connections=48)
        assert not server.crashed
        assert server.responsive
        server.crash()
        assert server.crashed
        assert not server.responsive
        server.recover()
        assert server.responsive


class TestFaultZoo:
    def make_server(self, env):
        from repro.tiers import PooledTier
        return PooledTier(env, "m", Host(env, "h"), max_connections=48)

    def test_crash_record_appended_at_crash_time(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(CrashFault("m", at=1.0, duration=2.0),
                        server_system(server))
        env.run(until=0.5)
        assert injector.records == []
        env.run(until=2.0)  # mid-crash
        assert len(injector.records) == 1
        record = injector.records[0]
        assert record.started_at == pytest.approx(1.0)
        assert record.ended_at is None
        env.run(until=4.0)
        assert record.ended_at == pytest.approx(3.0)

    def test_overlapping_crash_windows_stay_down_over_union(self,
                                                             monkeypatch):
        env = Environment()
        server = self.make_server(env)
        recoveries = []
        recover = server.recover
        monkeypatch.setattr(server, "recover", lambda: (
            recoveries.append(env.now), recover()))
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject_all((CrashFault("m", at=1.0, duration=2.0),
                             CrashFault("m", at=2.0, duration=3.0)),
                            server_system(server))
        for until in (1.5, 2.5, 3.5, 4.5):
            env.run(until=until)
            assert server.crashed
        env.run(until=6.0)
        assert not server.crashed
        assert recoveries == [5.0]
        assert [(r.started_at, r.ended_at) for r in injector.records] == [
            (1.0, 3.0), (2.0, 5.0)]

    def test_cache_crashed_twice_counts_one_cold_restart(self):
        from repro.tiers.cache import CacheTier
        env = Environment()
        cache = CacheTier(env, "m", Host(env, "h"), max_threads=4,
                          rng=np.random.default_rng(0))
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject_all((CrashFault("m", at=1.0, duration=2.0),
                             CrashFault("m", at=2.0, duration=2.0)),
                            server_system(cache))
        env.run(until=5.0)
        assert not cache.crashed
        assert cache.cold_restarts == 1
        assert cache.warm_start == 4.0

    def test_slow_fault_stretches_cpu_demand(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(SlowFault("m", at=1.0, duration=2.0, factor=3.0),
                        server_system(server))
        env.run(until=2.0)
        assert server.host.slowdown == pytest.approx(3.0)
        env.run(until=4.0)
        assert server.host.slowdown == pytest.approx(1.0)
        record = injector.records[0]
        assert record.kind == "slow"
        assert record.target == "m"
        assert record.value == 3.0
        assert record.started_at == pytest.approx(1.0)
        assert record.ended_at == pytest.approx(3.0)

    def test_slow_fault_validation(self):
        with pytest.raises(ConfigurationError):
            SlowFault("m", at=1.0, duration=1.0, factor=1.0)
        with pytest.raises(ConfigurationError):
            SlowFault("m", at=1.0, duration=0.0)

    def make_full_system(self, env):
        profile = ScaleProfile.smoke()
        return build_from_spec(
            env, classic_spec(profile, tomcat_millibottlenecks=False),
            rng=np.random.default_rng(0))

    def test_packet_loss_window_installs_and_removes_impairment(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(PacketLossFault(at=1.0, duration=2.0, loss=0.5),
                        system)
        env.run(until=2.0)
        for apache in system.frontends:
            assert apache.socket.impairment is not None
            assert apache.socket.impairment.loss == 0.5
        env.run(until=4.0)
        for apache in system.frontends:
            assert apache.socket.impairment is None
        # One record per impaired socket, window recorded.
        assert len(injector.records) == len(system.frontends)
        assert all(r.kind == "loss" and r.ended_at == pytest.approx(3.0)
                   for r in injector.records)

    def test_packet_loss_targets_one_apache(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject(PacketLossFault(at=1.0, duration=1.0,
                                        apache="apache1"), system)
        env.run(until=1.5)
        impaired = [a.name for a in system.frontends
                    if a.socket.impairment is not None]
        assert impaired == ["apache1"]
        with pytest.raises(ConfigurationError):
            injector.inject(PacketLossFault(at=2.0, duration=1.0,
                                            apache="nope"), system)

    def test_link_latency_window(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        members = [b.member_named("tomcat1") for b in system.balancers]
        base = [m.link.latency for m in members]
        injector.inject(
            LinkLatencyFault("tomcat1", at=1.0, duration=2.0, extra=0.01),
            system)
        env.run(until=2.0)
        for member, before in zip(members, base):
            assert member.link.latency == pytest.approx(before + 0.01)
        env.run(until=4.0)
        for member, before in zip(members, base):
            assert member.link.latency == pytest.approx(before)
        # One record per balancer link toward the target.
        assert len(injector.records) == len(system.balancers)
        assert all(r.kind == "latency" for r in injector.records)

    def test_correlated_crash_is_seed_deterministic(self):
        def crash_times(seed):
            env = Environment()
            system = self.make_full_system(env)
            injector = FaultInjector(env,
                                     rng=np.random.default_rng(seed))
            injector.inject(
                CorrelatedCrashFault(("tomcat1", "tomcat2"), at=1.0,
                                     duration=1.0, jitter=0.3), system)
            env.run(until=3.0)
            return sorted((r.target, r.started_at)
                          for r in injector.records)

        first, second = crash_times(7), crash_times(7)
        assert first == second
        assert len(first) == 2
        for _, at in first:
            assert 1.0 <= at <= 1.3
        assert crash_times(8) != first

    def test_recurring_slow_produces_episodes(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(3))
        injector.inject(
            RecurringFault("m", kind="slow", mean_interval=1.0,
                           duration=0.2, factor=2.0), server_system(server))
        env.run(until=10.0)
        assert len(injector.records) >= 3
        # Episodes are sequential: each ends before the next starts.
        for earlier, later in zip(injector.records, injector.records[1:]):
            assert earlier.ended_at is not None
            assert earlier.ended_at <= later.started_at
        assert server.host.slowdown == pytest.approx(1.0)

    def test_recurring_until_bounds_episodes(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(3))
        injector.inject(RecurringFault("m", kind="crash", mean_interval=0.5,
                                       duration=0.1, until=2.0),
                        server_system(server))
        env.run(until=10.0)
        assert all(r.started_at < 2.0 + 0.5 for r in injector.records)
        assert not server.crashed

    def test_recurring_kind_validation(self):
        with pytest.raises(ConfigurationError):
            RecurringFault("m", kind="explode")

    def test_unknown_spec_rejected(self):
        env = Environment()
        system = self.make_full_system(env)
        with pytest.raises(ConfigurationError):
            FaultInjector(env, rng=np.random.default_rng(0)).inject(
                object(), system)

    def test_inject_all_schedules_everything(self):
        env = Environment()
        system = self.make_full_system(env)
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject_all(
            (CrashFault("tomcat1", at=1.0, duration=0.5),
             SlowFault("tomcat2", at=1.0, duration=0.5, factor=2.0)),
            system)
        env.run(until=3.0)
        assert sorted(r.kind for r in injector.records) == ["crash", "slow"]

    @pytest.mark.parametrize("permanent", [
        CrashFault("m", at=5.0),
        CorrelatedCrashFault(("m",), at=5.0, jitter=0.0),
    ], ids=["crash", "correlated"])
    @pytest.mark.parametrize("recurring_first", [True, False])
    def test_permanent_crash_inside_recurring_schedule_stays_down(
            self, permanent, recurring_first):
        """A permanent crash inside a recurring crash schedule keeps its
        server down: the schedule's later recoveries close only their
        own windows."""
        recurring = RecurringFault("m", kind="crash", mean_interval=0.5,
                                   duration=0.1, start=1.2)
        specs = ((recurring, permanent) if recurring_first
                 else (permanent, recurring))
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(1))
        injector.inject_all(specs, server_system(server))
        env.run(until=20.0)
        assert server.crashed
        (forever,) = [r for r in injector.records if r.ended_at is None]
        assert forever.started_at == 5.0
        assert any(r.started_at > 5.0 for r in injector.records)

    def test_disjoint_recurring_and_permanent_crash_accepted(self):
        env = Environment()
        server = self.make_server(env)
        injector = FaultInjector(env, rng=np.random.default_rng(1))
        injector.inject_all(
            (RecurringFault("m", kind="crash", mean_interval=0.5,
                            duration=0.1, until=2.0),
             CrashFault("m", at=3.0)), server_system(server))
        env.run(until=4.0)
        assert server.crashed
        *episodes, permanent = injector.records
        assert episodes
        assert all(record.ended_at is not None for record in episodes)
        assert permanent.started_at == pytest.approx(3.0)
        assert permanent.ended_at is None


#: One bad field per fault spec: each is rejected when the spec is
#: built, not when a run injects it.
BAD_FAULT_FIELDS = [
    pytest.param(CrashFault, {"server": "m", "at": -1.0},
                 id="CrashFault.at"),
    pytest.param(CrashFault, {"server": "m", "at": 1.0, "duration": 0.0},
                 id="CrashFault.duration"),
    pytest.param(SlowFault, {"server": "m", "at": 1.0, "duration": 1.0,
                             "factor": 1.0},
                 id="SlowFault.factor"),
    pytest.param(PacketLossFault, {"at": 1.0, "duration": 1.0,
                                   "loss": 1.0},
                 id="PacketLossFault.loss"),
    pytest.param(PacketLossFault, {"at": 1.0, "duration": 1.0,
                                   "extra_latency": -0.1},
                 id="PacketLossFault.extra_latency"),
    pytest.param(LinkLatencyFault, {"server": "m", "at": 1.0,
                                    "duration": 1.0, "extra": 0.0},
                 id="LinkLatencyFault.extra"),
    pytest.param(CorrelatedCrashFault, {"servers": ("m",), "at": 1.0,
                                        "jitter": -0.1},
                 id="CorrelatedCrashFault.jitter"),
    pytest.param(RecurringFault, {"server": "m", "mean_interval": 0.0},
                 id="RecurringFault.mean_interval"),
    pytest.param(RecurringFault, {"server": "m", "kind": "slow",
                                  "factor": 0.5},
                 id="RecurringFault.factor"),
    pytest.param(RecurringFault, {"server": "m", "start": -1.0},
                 id="RecurringFault.start"),
    pytest.param(ZoneOutageFault, {"zone": "east", "at": 1.0,
                                   "duration": -2.0},
                 id="ZoneOutageFault.duration"),
    pytest.param(WanDegradationFault, {"zone_a": "east", "zone_b": "west",
                                       "at": 1.0, "duration": 1.0,
                                       "loss": 1.5},
                 id="WanDegradationFault.loss"),
    pytest.param(WanDegradationFault, {"zone_a": "east", "zone_b": "west",
                                       "at": 1.0, "duration": 1.0,
                                       "rto": 0.0},
                 id="WanDegradationFault.rto"),
]


@pytest.mark.parametrize("spec_cls, fields", BAD_FAULT_FIELDS)
def test_fault_spec_rejects_bad_field(spec_cls, fields):
    with pytest.raises(ConfigurationError):
        spec_cls(**fields)


def server_system(server):
    """Minimal NTierSystem stand-in resolving one server by name."""
    class _System:
        def server_named(self, name):
            assert name == server.name
            return server
    return _System()
