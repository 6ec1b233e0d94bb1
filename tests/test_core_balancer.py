"""Unit tests for the two-level LoadBalancer and DirectDispatcher."""

import numpy as np
import pytest

from repro.core import (
    DirectDispatcher,
    LoadBalancer,
    MemberState,
    ModifiedGetEndpoint,
    OriginalGetEndpoint,
    StateConfig,
    TotalRequestPolicy,
    CurrentLoadPolicy,
    get_bundle,
    TABLE1_BUNDLES,
)
from repro.errors import ConfigurationError, NoCandidateError
from repro.osmodel import Host
from repro.sim import Environment
from repro.tiers import PooledTier, WorkerTier
from repro.workload import Request, get_interaction


def make_backends(env, count=4, threads=4):
    mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                       max_connections=48)
    backends = []
    for i in range(count):
        name = "tomcat{}".format(i + 1)
        backends.append(WorkerTier(env, name, Host(env, name),
                                   max_threads=threads,
                                   downstream=mysql.query))
    return backends


def make_balancer(env, backends=None, policy=None, mechanism=None,
                  **kwargs):
    backends = backends or make_backends(env)
    return LoadBalancer(
        env, "apache1.lb", backends,
        policy=policy or TotalRequestPolicy(),
        mechanism=mechanism or ModifiedGetEndpoint(),
        rng=np.random.default_rng(0),
        **kwargs,
    )


def dispatch_n(env, balancer, n, spacing=0.01):
    done = []

    def proc(env, i):
        yield env.timeout(i * spacing)
        request = Request(env, i, get_interaction("ViewStory"), i)
        yield from balancer.dispatch(request)
        done.append(request)

    for i in range(n):
        env.process(proc(env, i))
    env.run()
    return done


class TestDispatch:
    def test_round_trip_annotates_request(self):
        env = Environment()
        balancer = make_balancer(env)
        done = dispatch_n(env, balancer, 1)
        request = done[0]
        assert request.served_by == "tomcat1"
        assert request.dispatched_at is not None
        assert balancer.dispatches == 1

    def test_even_distribution_total_request(self):
        env = Environment()
        balancer = make_balancer(env)
        done = dispatch_n(env, balancer, 40)
        counts = balancer.distribution_between(0, env.now + 1)
        assert set(counts.values()) == {10}

    def test_even_distribution_current_load(self):
        env = Environment()
        balancer = make_balancer(env, policy=CurrentLoadPolicy())
        # Concurrent dispatches: the pick-time increment spreads them.
        dispatch_n(env, balancer, 40, spacing=0.0)
        counts = balancer.distribution_between(0, env.now + 1)
        assert set(counts.values()) == {10}

    def test_current_load_ties_favor_first_index(self):
        env = Environment()
        balancer = make_balancer(env, policy=CurrentLoadPolicy())
        # Strictly sequential dispatches always see an all-zero tie, so
        # the first index wins every time (mod_jk behaves the same way;
        # real concurrency is what spreads the load).
        dispatch_n(env, balancer, 10, spacing=0.05)
        counts = balancer.distribution_between(0, env.now + 1)
        assert counts["tomcat1"] == 10

    def test_dispatch_and_pick_traces(self):
        env = Environment()
        balancer = make_balancer(env)
        dispatch_n(env, balancer, 8)
        assert len(balancer.dispatch_trace) == 8
        assert len(balancer.pick_trace) == 8
        picks = balancer.picks_between(0, env.now + 1)
        assert sum(picks.values()) == 8

    def test_traces_disabled(self):
        env = Environment()
        balancer = make_balancer(env, trace=False)
        dispatch_n(env, balancer, 2)
        assert balancer.dispatch_trace is None
        assert balancer.pick_trace is None
        assert all(m.lb_trace is None for m in balancer.members)
        with pytest.raises(ConfigurationError):
            balancer.distribution_between(0, 1)
        with pytest.raises(ConfigurationError):
            balancer.picks_between(0, 1)

    def test_member_counters(self):
        env = Environment()
        balancer = make_balancer(env)
        dispatch_n(env, balancer, 12)
        for member in balancer.members:
            assert member.dispatched == 3
            assert member.completed == 3
            assert member.inflight == 0

    def test_member_named(self):
        env = Environment()
        balancer = make_balancer(env)
        assert balancer.member_named("tomcat2").index == 1
        with pytest.raises(ConfigurationError):
            balancer.member_named("nope")

    def test_needs_backends(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            LoadBalancer(env, "lb", [], policy=TotalRequestPolicy(),
                         mechanism=ModifiedGetEndpoint(),
                         rng=np.random.default_rng(0))


class TestBusyHandling:
    def test_failed_endpoint_marks_busy_and_moves_on(self):
        env = Environment()
        backends = make_backends(env, count=2)
        balancer = make_balancer(env, backends=backends, pool_size=1)
        # Exhaust tomcat1's endpoint pool.
        member1 = balancer.members[0]
        member1.try_acquire()
        done = dispatch_n(env, balancer, 1)
        # Dispatch succeeded on the other backend despite tomcat1 being
        # the best-ranked candidate.
        assert done[0].served_by == "tomcat2"
        assert member1.state is MemberState.BUSY
        assert balancer.endpoint_failures == 1

    def test_all_error_raises_no_candidate(self):
        env = Environment()
        balancer = make_balancer(env)
        for member in balancer.members:
            member.mark_error()
        failures = []

        def proc(env):
            request = Request(env, 1, get_interaction("ViewStory"), 0)
            try:
                yield from balancer.dispatch(request)
            except NoCandidateError:
                failures.append(env.now)

        env.process(proc(env))
        env.run()
        assert failures == [0.0]

    def test_error_member_recovers_after_window(self):
        env = Environment()
        backends = make_backends(env, count=1)
        balancer = make_balancer(
            env, backends=backends,
            state_config=StateConfig(error_recovery=0.5))
        balancer.members[0].mark_error()

        def proc(env):
            yield env.timeout(1.0)
            request = Request(env, 1, get_interaction("ViewStory"), 0)
            yield from balancer.dispatch(request)
            return request.served_by

        p = env.process(proc(env))
        env.run()
        assert p.value == "tomcat1"
        assert balancer.members[0].state is MemberState.AVAILABLE

    def test_error_reprobe_failure_keeps_member_in_error(self):
        """§IV-A re-probe path: after error_recovery an Error member is
        probed again, and a *failed* probe leaves it in Error (no bounce
        through Busy) while the request proceeds on a survivor.  Round
        robin guarantees the dead member is probed exactly once before
        the cursor moves on."""
        from repro.core import RoundRobinPolicy

        env = Environment()
        backends = make_backends(env, count=2)
        backends[0].crash()
        balancer = make_balancer(
            env, backends=backends, policy=RoundRobinPolicy(),
            state_config=StateConfig(error_recovery=0.5))
        balancer.members[0].mark_error()

        def proc(env):
            yield env.timeout(1.0)  # recovery window elapsed
            request = Request(env, 1, get_interaction("ViewStory"), 0)
            yield from balancer.dispatch(request)
            return request.served_by

        p = env.process(proc(env))
        env.run()
        # The dead member was eligible for a re-probe, the probe failed,
        # and it stayed Error instead of bouncing through Busy.
        assert balancer.members[0].state is MemberState.ERROR
        assert p.value == "tomcat2"

    def test_error_reprobe_success_after_backend_recovers(self):
        env = Environment()
        backends = make_backends(env, count=1)
        backends[0].crash()
        balancer = make_balancer(
            env, backends=backends,
            state_config=StateConfig(error_recovery=0.5))
        balancer.members[0].mark_error()

        def revive(env):
            yield env.timeout(2.0)
            backends[0].recover()

        def proc(env):
            yield env.timeout(3.0)
            request = Request(env, 1, get_interaction("ViewStory"), 0)
            yield from balancer.dispatch(request)
            return request.served_by

        env.process(revive(env))
        p = env.process(proc(env))
        env.run()
        assert p.value == "tomcat1"
        assert balancer.members[0].state is MemberState.AVAILABLE

    def test_repeated_busy_escalates_to_error_and_no_candidate(self):
        env = Environment()
        backends = make_backends(env, count=1)
        balancer = make_balancer(
            env, backends=backends,
            pool_size=1,
            state_config=StateConfig(busy_recheck=0.01,
                                     max_busy_retries=2,
                                     error_recovery=60.0))
        balancer.members[0].try_acquire()  # permanently exhausted
        failures = []

        def proc(env):
            request = Request(env, 1, get_interaction("ViewStory"), 0)
            try:
                yield from balancer.dispatch(request)
            except NoCandidateError:
                failures.append(env.now)

        env.process(proc(env))
        env.run(until=10.0)
        assert len(failures) == 1


class TestDirectDispatcher:
    def test_forwards_to_single_backend(self):
        env = Environment()
        backends = make_backends(env, count=1)
        dispatcher = DirectDispatcher(env, backends[0])

        def proc(env):
            request = Request(env, 1, get_interaction("ViewStory"), 0)
            yield from dispatcher.dispatch(request)
            return request.served_by

        p = env.process(proc(env))
        env.run()
        assert p.value == "tomcat1"
        assert dispatcher.dispatches == 1


class TestRemedyBundles:
    def test_table1_has_six_rows(self):
        assert len(TABLE1_BUNDLES) == 6

    def test_bundle_lookup_and_factories(self):
        bundle = get_bundle("current_load_modified")
        assert bundle.policy_name == "current_load"
        assert bundle.mechanism_name == "modified"
        assert isinstance(bundle.make_policy(), CurrentLoadPolicy)
        assert isinstance(bundle.make_mechanism(), ModifiedGetEndpoint)

    def test_unknown_bundle(self):
        with pytest.raises(ConfigurationError):
            get_bundle("nope")

    def test_policies_not_shared_between_factories(self):
        bundle = get_bundle("current_load")
        assert bundle.make_policy() is not bundle.make_policy()
