"""Unit tests for the get_endpoint mechanisms (Algorithm 1 and remedy)."""

import pytest

from repro.core import (
    DEFAULT_CACHE_ACQUIRE_TIMEOUT,
    DEFAULT_JK_SLEEP,
    MECHANISMS,
    ModifiedGetEndpoint,
    OriginalGetEndpoint,
    make_mechanism,
)
from repro.core.member import BalancerMember
from repro.errors import ConfigurationError
from repro.osmodel import Host
from repro.sim import Environment
from repro.tiers import PooledTier, WorkerTier


def make_member(env, pool_size=2, preconnect=True):
    mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                       max_connections=48)
    tomcat = WorkerTier(env, "tomcat1", Host(env, "tomcat1"), max_threads=2,
                        downstream=mysql.query)
    return BalancerMember(env, tomcat, 0, pool_size=pool_size,
                          preconnect=preconnect), tomcat


def run_get_endpoint(env, mechanism, member):
    result = {}

    def proc(env):
        endpoint = yield from mechanism.get_endpoint(member)
        result["endpoint"] = endpoint
        result["time"] = env.now

    env.process(proc(env))
    env.run()
    return result


class TestRegistry:
    def test_defaults_match_mod_jk(self):
        assert DEFAULT_CACHE_ACQUIRE_TIMEOUT == pytest.approx(0.300)
        assert DEFAULT_JK_SLEEP == pytest.approx(0.100)

    def test_make_mechanism(self):
        assert isinstance(make_mechanism("original"), OriginalGetEndpoint)
        assert isinstance(make_mechanism("modified"), ModifiedGetEndpoint)
        with pytest.raises(ConfigurationError):
            make_mechanism("nope")
        assert set(MECHANISMS) == {"original", "modified"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OriginalGetEndpoint(cache_acquire_timeout=-1)
        with pytest.raises(ConfigurationError):
            OriginalGetEndpoint(jk_sleep=0)


class TestOriginal:
    def test_immediate_success_when_endpoint_free(self):
        env = Environment()
        member, _ = make_member(env)
        result = run_get_endpoint(env, OriginalGetEndpoint(), member)
        assert result["endpoint"] is not None
        assert result["time"] == 0.0

    def test_polls_until_timeout_then_fails(self):
        """Algorithm 1 with the defaults probes at 0/100/200 ms and
        returns false at 300 ms."""
        env = Environment()
        member, _ = make_member(env, pool_size=1)
        member.try_acquire()  # exhaust the pool, never released
        mechanism = OriginalGetEndpoint()
        result = run_get_endpoint(env, mechanism, member)
        assert result["endpoint"] is None
        assert result["time"] == pytest.approx(0.300)
        assert mechanism.timeouts == 1

    def test_succeeds_when_endpoint_frees_mid_poll(self):
        """A millibottleneck shorter than the timeout: the poll
        succeeds at the first probe after recovery — the worker was
        blocked, but the member never left the Available state."""
        env = Environment()
        member, _ = make_member(env, pool_size=1)
        endpoint = member.try_acquire()

        def releaser(env):
            yield env.timeout(0.150)
            endpoint.release()

        env.process(releaser(env))
        mechanism = OriginalGetEndpoint()
        result = run_get_endpoint(env, mechanism, member)
        assert result["endpoint"] is not None
        assert result["time"] == pytest.approx(0.200)  # next 100 ms probe
        assert mechanism.timeouts == 0
        assert mechanism.time_spent_polling == pytest.approx(0.200)

    def test_custom_timeout(self):
        env = Environment()
        member, _ = make_member(env, pool_size=1)
        member.try_acquire()
        mechanism = OriginalGetEndpoint(cache_acquire_timeout=0.05,
                                        jk_sleep=0.01)
        result = run_get_endpoint(env, mechanism, member)
        assert result["endpoint"] is None
        assert result["time"] == pytest.approx(0.05)


class TestModified:
    def test_immediate_success(self):
        env = Environment()
        member, _ = make_member(env)
        result = run_get_endpoint(env, ModifiedGetEndpoint(), member)
        assert result["endpoint"] is not None
        assert result["time"] == 0.0

    def test_immediate_failure_no_waiting(self):
        """§IV-C: no polling — the verdict lands in zero time."""
        env = Environment()
        member, _ = make_member(env, pool_size=1)
        member.try_acquire()
        mechanism = ModifiedGetEndpoint()
        result = run_get_endpoint(env, mechanism, member)
        assert result["endpoint"] is None
        assert result["time"] == 0.0
        assert mechanism.immediate_failures == 1

    def test_unresponsive_backend_fails_fresh_connections(self):
        env = Environment()
        member, tomcat = make_member(env, pool_size=2, preconnect=False)

        def stall(env):
            yield from tomcat.host.cpu.stall(1.0)

        env.process(stall(env))
        env.run(until=0.1)
        result = {}

        def probe(env):
            endpoint = yield from ModifiedGetEndpoint().get_endpoint(member)
            result["endpoint"] = endpoint

        env.process(probe(env))
        env.run(until=0.2)
        assert result["endpoint"] is None
