"""Policy conformance suite: every registry entry honours the contract.

Each test here is parametrized over **every** ``POLICIES`` entry, so a
new policy is automatically held to the same contract the day it is
registered:

* ``select()`` only ever returns one of the offered (eligible) members;
* selection is deterministic under a fixed rng and identical history;
* member counters (``lb_value``, ``inflight``) stay non-negative
  through arbitrary pick/abandon/complete cycles;
* an unconfigured policy schedules **zero** simulation events — the
  property that keeps the golden traces byte-identical while the
  modern zoo sits in the registry unselected.
"""

import numpy as np
import pytest

from repro.core import (
    LoadBalancer,
    ModifiedGetEndpoint,
)
from repro.core.member import BalancerMember
from repro.core.policies import POLICIES, PrequalPolicy, make_policy
from repro.osmodel import Host
from repro.sim import Environment
from repro.tiers import PooledTier, WorkerTier
from repro.workload import Request, get_interaction

POLICY_ITEMS = sorted(POLICIES.items())
POLICY_IDS = [name for name, _ in POLICY_ITEMS]


def build_members(count=4, threads=2):
    env = Environment()
    mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                       max_connections=48)
    members = []
    for i in range(count):
        name = "tomcat{}".format(i + 1)
        tomcat = WorkerTier(env, name, Host(env, name),
                            max_threads=threads,
                            downstream=mysql.query)
        members.append(BalancerMember(env, tomcat, index=i, trace=False))
    return env, members


def build_balancer(env, policy, count=3):
    mysql = PooledTier(env, "bal-mysql", Host(env, "bal-mysql"),
                       max_connections=48)
    backends = [
        WorkerTier(env, "bal-tomcat{}".format(i + 1),
                   Host(env, "bal-tomcat{}".format(i + 1)), max_threads=2,
                   downstream=mysql.query)
        for i in range(count)
    ]
    return LoadBalancer(env, "conformance.lb", backends, policy=policy,
                        mechanism=ModifiedGetEndpoint(),
                        rng=np.random.default_rng(0))


def make_request(env, serial, client=0):
    return Request(env, serial, get_interaction("ViewStory"), client)


def drive(policy, env, members, rng, steps=36):
    """A fixed pick/dispatch/complete/abandon script; returns picks."""
    picks = []
    outstanding = []
    serial = 0
    for step in range(steps):
        member = policy.select(members, rng,
                               request=make_request(env, serial,
                                                    client=serial % 3))
        picks.append(member.index)
        request = make_request(env, serial, client=serial % 3)
        request.dispatched_at = 0.0
        serial += 1
        policy.on_pick(member, request)
        if step % 7 == 3:  # endpoint acquisition failed
            policy.on_pick_abandoned(member, request)
            continue
        policy.on_dispatch(member, request)
        member.inflight += 1
        outstanding.append((member, request))
        if step % 3 == 2 and outstanding:
            done_member, done_request = outstanding.pop(0)
            done_member.inflight -= 1
            policy.on_complete(done_member, done_request)
    return picks


@pytest.mark.parametrize("name,cls", POLICY_ITEMS, ids=POLICY_IDS)
class TestConformance:
    def test_select_returns_an_eligible_member(self, name, cls):
        """Whatever subset the 3-state machine offers, the pick is
        inside it — a policy never resurrects a filtered-out member."""
        env, members = build_members()
        policy = cls()
        rng = np.random.default_rng(5)
        subsets = [members, members[:1], members[1:3], [members[2]],
                   members[::2], list(reversed(members))]
        serial = 0
        for round_no in range(4):
            for eligible in subsets:
                member = policy.select(eligible, rng,
                                       request=make_request(env, serial,
                                                            client=serial))
                serial += 1
                assert member in eligible
                request = make_request(env, serial, client=serial)
                request.dispatched_at = 0.0
                policy.on_pick(member, request)
                policy.on_dispatch(member, request)
                member.inflight += 1
                member.inflight -= 1
                policy.on_complete(member, request)

    def test_deterministic_under_fixed_rng(self, name, cls):
        """Two instances fed identical histories and same-seeded rngs
        produce identical pick sequences."""
        env_a, members_a = build_members()
        env_b, members_b = build_members()
        picks_a = drive(cls(), env_a, members_a, np.random.default_rng(17))
        picks_b = drive(cls(), env_b, members_b, np.random.default_rng(17))
        assert picks_a == picks_b

    def test_counters_stay_nonnegative(self, name, cls):
        """lb_value and inflight never go below zero through arbitrary
        pick/abandon/complete interleavings."""
        env, members = build_members()
        policy = cls()
        rng = np.random.default_rng(23)
        outstanding = []
        serial = 0
        for step in range(60):
            op = step % 5
            if op in (0, 1, 2):
                member = policy.select(members, rng,
                                       request=make_request(env, serial,
                                                            client=serial))
                request = make_request(env, serial, client=serial)
                request.dispatched_at = 0.0
                serial += 1
                policy.on_pick(member, request)
                policy.on_dispatch(member, request)
                member.inflight += 1
                outstanding.append((member, request))
            elif op == 3 and outstanding:
                member, request = outstanding.pop(0)
                member.inflight -= 1
                policy.on_complete(member, request)
            elif op == 4 and outstanding:
                member, request = outstanding.pop()
                member.inflight -= 1
                policy.on_pick_abandoned(member, request)
            assert all(m.lb_value >= 0 for m in members)
            assert all(m.inflight >= 0 for m in members)

    def test_unattached_policy_schedules_no_events(self, name, cls):
        """Constructing and exercising a policy outside a balancer must
        not touch the event heap — selection is pure ranking."""
        env, members = build_members()
        before = len(env)
        policy = cls()
        rng = np.random.default_rng(2)
        drive(policy, env, members, rng, steps=12)
        policy.on_member_state(members[0])
        policy.on_member_added(members[0])
        policy.on_member_removed(members[0])
        assert len(env) == before

    def test_attach_is_zero_event_unless_probing(self, name, cls):
        """attach() may start processes only for probing policies; every
        other policy leaves the balancer's event count exactly where a
        classic policy does (the golden-trace neutrality guarantee)."""
        env = Environment()
        before = len(env)
        build_balancer(env, make_policy("total_request"))
        baseline = len(env) - before

        env2 = Environment()
        before2 = len(env2)
        build_balancer(env2, cls())
        scheduled = len(env2) - before2
        if isinstance(cls(), PrequalPolicy):
            assert scheduled == baseline + 1  # exactly the probe pool
        else:
            assert scheduled == baseline

    def test_registry_name_round_trips(self, name, cls):
        policy = make_policy(name)
        assert isinstance(policy, cls)
        assert policy.name == name
        assert POLICIES[policy.name] is cls
