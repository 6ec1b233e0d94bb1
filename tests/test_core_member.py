"""Unit tests for BalancerMember, Endpoint, and the 3-state machine."""

import numpy as np
import pytest

from repro.core import BalancerMember, MemberState, StateConfig
from repro.errors import ConfigurationError, SimulationError
from repro.osmodel import Host, MillibottleneckProfile
from repro.sim import Environment
from repro.tiers import PooledTier, WorkerTier
from repro.workload import Request, get_interaction


def make_member(env, pool_size=3, preconnect=True, state_config=None,
                flush=None):
    mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                       max_connections=48)
    tomcat_host = Host(env, "tomcat1", flush_profile=flush,
                       disk_bandwidth=10e6)
    tomcat = WorkerTier(env, "tomcat1", tomcat_host, max_threads=4,
                        downstream=mysql.query)
    member = BalancerMember(env, tomcat, index=0, pool_size=pool_size,
                            preconnect=preconnect,
                            state_config=state_config)
    return member, tomcat


class TestEndpointPool:
    def test_acquire_and_release(self):
        env = Environment()
        member, _ = make_member(env)
        endpoint = member.try_acquire()
        assert endpoint is not None
        assert member.pool.count == 1
        endpoint.release()
        assert member.pool.count == 0
        assert endpoint.released

    def test_double_release_rejected(self):
        env = Environment()
        member, _ = make_member(env)
        endpoint = member.try_acquire()
        endpoint.release()
        with pytest.raises(SimulationError):
            endpoint.release()

    def test_pool_exhaustion_fails_probe(self):
        env = Environment()
        member, _ = make_member(env, pool_size=2)
        first = member.try_acquire()
        second = member.try_acquire()
        assert first and second
        assert member.try_acquire() is None
        first.release()
        assert member.try_acquire() is not None

    def test_preconnected_pool_ignores_responsiveness(self):
        """Reusing an established connection works mid-stall: the
        kernel buffers the send even though the app is frozen."""
        env = Environment()
        profile = MillibottleneckProfile(flush_interval=0.5,
                                         dirty_threshold_bytes=1e5)
        member, tomcat = make_member(env, pool_size=2, flush=profile)
        tomcat.host.write_file(5e6)  # 500 ms stall at t=0.5
        result = {}

        def probe(env):
            yield env.timeout(0.6)  # mid-stall
            assert not tomcat.responsive
            result["endpoint"] = member.try_acquire()

        env.process(probe(env))
        env.run(until=0.7)
        assert result["endpoint"] is not None

    def test_cold_pool_requires_responsive_backend(self):
        """Opening a NEW connection needs the backend to answer."""
        env = Environment()
        profile = MillibottleneckProfile(flush_interval=0.5,
                                         dirty_threshold_bytes=1e5)
        member, tomcat = make_member(env, pool_size=2, preconnect=False,
                                     flush=profile)
        tomcat.host.write_file(5e6)
        result = {}

        def probe(env):
            yield env.timeout(0.6)  # mid-stall
            result["mid_stall"] = member.try_acquire()
            yield env.timeout(0.6)  # after recovery
            result["recovered"] = member.try_acquire()

        env.process(probe(env))
        env.run(until=1.5)
        assert result["mid_stall"] is None
        assert result["recovered"] is not None

    def test_connections_persist_after_release(self):
        env = Environment()
        member, tomcat = make_member(env, pool_size=1, preconnect=False)
        endpoint = member.try_acquire()  # establishes the connection
        endpoint.release()
        # Freeze the backend; reuse must still work (connected slot).
        profile = MillibottleneckProfile(flush_interval=0.5,
                                         dirty_threshold_bytes=1e5)
        # Simulate stall by exhausting iowait directly.
        def stall(env):
            yield from tomcat.host.cpu.stall(0.5)
        env.process(stall(env))
        env.run(until=0.1)
        assert not tomcat.responsive
        assert member.try_acquire() is not None


class TestStateMachine:
    def test_initially_available(self):
        env = Environment()
        member, _ = make_member(env)
        assert member.state is MemberState.AVAILABLE
        assert member.eligible(0.0)

    def test_busy_then_recheck_eligibility(self):
        env = Environment()
        config = StateConfig(busy_recheck=0.1)
        member, _ = make_member(env, state_config=config)
        member.mark_busy()
        assert member.state is MemberState.BUSY
        assert not member.eligible(0.05)
        assert member.eligible(0.15)

    def test_busy_retries_escalate_to_error(self):
        env = Environment()
        config = StateConfig(busy_recheck=0.1, max_busy_retries=3)
        member, _ = make_member(env, state_config=config)

        def failing_probes(env):
            member.mark_busy()  # episode 1
            for _ in range(3):  # episodes 2-4: 4 > max 3 -> Error
                yield env.timeout(0.11)
                member.mark_busy()

        env.process(failing_probes(env))
        env.run()
        assert member.state is MemberState.ERROR

    def test_concurrent_busy_reports_count_once(self):
        """Many stuck workers timing out together are one episode, not
        many retries — a millibottleneck must not escalate to Error."""
        env = Environment()
        config = StateConfig(busy_recheck=0.1, max_busy_retries=3)
        member, _ = make_member(env, state_config=config)
        for _ in range(50):  # all at t=0
            member.mark_busy()
        assert member.state is MemberState.BUSY
        assert member.busy_retries == 1

    def test_error_recovery_window(self):
        env = Environment()
        config = StateConfig(error_recovery=5.0)
        member, _ = make_member(env, state_config=config)
        member.mark_error()
        assert not member.eligible(4.0)
        assert member.eligible(5.5)

    def test_mark_available_resets_retries(self):
        env = Environment()
        config = StateConfig(max_busy_retries=2)
        member, _ = make_member(env, state_config=config)
        member.mark_busy()
        member.mark_busy()
        member.mark_available()
        assert member.busy_retries == 0
        member.mark_busy()
        assert member.state is MemberState.BUSY

    def test_endpoint_release_recovers_busy_member(self):
        env = Environment()
        member, _ = make_member(env)
        endpoint = member.try_acquire()
        member.mark_busy()
        endpoint.release()
        assert member.state is MemberState.AVAILABLE

    def test_mark_busy_does_not_demote_error(self):
        env = Environment()
        member, _ = make_member(env)
        member.mark_error()
        member.mark_busy()
        assert member.state is MemberState.ERROR

    def test_state_config_validation(self):
        with pytest.raises(ConfigurationError):
            StateConfig(busy_recheck=0)
        with pytest.raises(ConfigurationError):
            StateConfig(max_busy_retries=0)
        with pytest.raises(ConfigurationError):
            StateConfig(error_recovery=0)


class TestLbValueTrace:
    def test_changes_are_traced(self):
        env = Environment()
        member, _ = make_member(env)
        member.lb_value = 1.0
        member.lb_value = 2.0
        assert member.lb_trace.values == [1.0, 2.0]

    def test_tracing_can_be_disabled(self):
        env = Environment()
        mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                           max_connections=48)
        tomcat = WorkerTier(env, "t", Host(env, "t"), max_threads=2,
                            downstream=mysql.query)
        member = BalancerMember(env, tomcat, 0, trace=False)
        member.lb_value = 5.0
        assert member.lb_trace is None
        assert member.lb_value == 5.0


class TestSend:
    def test_send_round_trip(self):
        env = Environment()
        member, tomcat = make_member(env)
        request = Request(env, 1, get_interaction("ViewStory"), 0)

        def proc(env):
            yield from member.send(request)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value > 0
        assert tomcat.requests_completed == 1
