"""Unit tests for the load balancing policies."""

import numpy as np
import pytest

from repro.core import (
    CurrentLoadPolicy,
    EwmaLatencyPolicy,
    JoinIdleQueuePolicy,
    POLICIES,
    PrequalPolicy,
    PrequalProbeConfig,
    RandomPolicy,
    RoundRobinPolicy,
    StickyConfig,
    StickySessionPolicy,
    TotalRequestPolicy,
    TotalTrafficPolicy,
    TwoChoicesPolicy,
    WeightedLeastConnPolicy,
    make_policy,
)
from repro.core.member import BalancerMember
from repro.errors import ConfigurationError
from repro.osmodel import Host
from repro.sim import Environment
from repro.tiers import PooledTier, WorkerTier
from repro.workload import Request, get_interaction


@pytest.fixture
def members():
    env = Environment()
    mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                       max_connections=48)
    out = []
    for i in range(4):
        name = "tomcat{}".format(i + 1)
        tomcat = WorkerTier(env, name, Host(env, name), max_threads=2,
                            downstream=mysql.query)
        out.append(BalancerMember(env, tomcat, index=i))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def make_request(env_owner):
    env = env_owner.env
    return Request(env, 1, get_interaction("ViewStory"), 0)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {
            "total_request", "total_traffic", "current_load",
            "round_robin", "random", "two_choices", "jsq_d",
            "ewma_latency", "prequal", "jiq", "weighted_least_conn",
            "sticky"}

    def test_make_policy(self):
        assert isinstance(make_policy("current_load"), CurrentLoadPolicy)
        with pytest.raises(ConfigurationError):
            make_policy("nope")

    def test_cumulative_flags(self):
        assert TotalRequestPolicy.cumulative
        assert TotalTrafficPolicy.cumulative
        assert not CurrentLoadPolicy.cumulative


class TestTotalRequest(object):
    def test_select_lowest_lb_value(self, members, rng):
        policy = TotalRequestPolicy()
        members[2].lb_value = -1
        assert policy.select(members, rng) is members[2]

    def test_ties_break_by_index(self, members, rng):
        policy = TotalRequestPolicy()
        assert policy.select(members, rng) is members[0]

    def test_dispatch_increments(self, members):
        policy = TotalRequestPolicy()
        request = make_request(members[0])
        policy.on_dispatch(members[0], request)
        assert members[0].lb_value == 1.0
        policy.on_complete(members[0], request)
        assert members[0].lb_value == 1.0  # completion does nothing

    def test_round_robin_emerges_in_steady_state(self, members, rng):
        """With dispatch-time increments and ties broken by index, the
        policy distributes perfectly evenly."""
        policy = TotalRequestPolicy()
        picks = []
        for _ in range(20):
            member = policy.select(members, rng)
            policy.on_dispatch(member, make_request(member))
            picks.append(member.index)
        assert picks[:8] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert all(member.lb_value == 5 for member in members)


class TestTotalTraffic:
    def test_completion_adds_traffic_bytes(self, members):
        policy = TotalTrafficPolicy()
        request = make_request(members[0])
        policy.on_dispatch(members[0], request)
        assert members[0].lb_value == 0.0  # nothing at dispatch
        policy.on_complete(members[0], request)
        assert members[0].lb_value == request.traffic_bytes

    def test_stalled_member_stays_lowest(self, members, rng):
        """The §V-A instability: a member that completes nothing keeps
        the lowest lb_value and is picked forever."""
        policy = TotalTrafficPolicy()
        for _ in range(10):
            member = policy.select(members, rng)
            request = make_request(member)
            policy.on_dispatch(member, request)
            if member.index != 0:  # member 0 is "stalled": no completion
                policy.on_complete(member, request)
        # After warm-up, member 0 has lb 0 and keeps winning.
        assert policy.select(members, rng) is members[0]


class TestCurrentLoad:
    def test_pick_and_complete_balance(self, members):
        policy = CurrentLoadPolicy()
        request = make_request(members[0])
        policy.on_pick(members[0], request)
        assert members[0].lb_value == 1.0
        policy.on_complete(members[0], request)
        assert members[0].lb_value == 0.0

    def test_never_negative(self, members):
        policy = CurrentLoadPolicy()
        request = make_request(members[0])
        policy.on_complete(members[0], request)
        policy.on_complete(members[0], request)
        assert members[0].lb_value == 0.0

    def test_abandoned_pick_is_refunded(self, members):
        policy = CurrentLoadPolicy()
        request = make_request(members[0])
        policy.on_pick(members[0], request)
        policy.on_pick_abandoned(members[0], request)
        assert members[0].lb_value == 0.0

    def test_stalled_member_rises_and_is_avoided(self, members, rng):
        """The §V-B remedy: picks (even stuck ones) weigh the stalled
        member down, so healthy members win."""
        policy = CurrentLoadPolicy()
        stalled = members[0]
        # Two workers pick the stalled member and get stuck (no
        # completion, no abandonment yet).
        policy.on_pick(stalled, make_request(stalled))
        policy.on_pick(stalled, make_request(stalled))
        picks = [policy.select(members, rng) for _ in range(6)]
        assert stalled not in picks

    def test_property_random_ops_keep_lb_value_nonnegative(self, members):
        rng = np.random.default_rng(0)
        policy = CurrentLoadPolicy()
        member = members[0]
        for _ in range(500):
            op = rng.integers(3)
            request = make_request(member)
            if op == 0:
                policy.on_pick(member, request)
            elif op == 1:
                policy.on_complete(member, request)
            else:
                policy.on_pick_abandoned(member, request)
            assert member.lb_value >= 0


class TestRoundRobin:
    def test_cycles_members(self, members, rng):
        policy = RoundRobinPolicy()
        picks = [policy.select(members, rng).index for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_skips_ineligible(self, members, rng):
        policy = RoundRobinPolicy()
        eligible = [members[0], members[2]]
        picks = [policy.select(eligible, rng).index for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_recovered_member_gets_next_pick(self, members, rng):
        """Regression: a cursor-based round robin advances past members
        that are ineligible at pick time, so a member recovering from
        an Error window whose eligibility keeps missing the cursor can
        be starved forever.  Least-recently-served gives the recovered
        member the very next pick."""
        policy = RoundRobinPolicy()
        healthy = members[1:]
        for _ in range(9):  # member 0 is in its Error window
            policy.select(healthy, rng)
        assert policy.select(members, rng) is members[0]
        # ... and the cycle continues fairly afterwards.
        picks = [policy.select(members, rng).index for _ in range(8)]
        assert sorted(picks[:4]) == [0, 1, 2, 3]
        assert sorted(picks[4:]) == [0, 1, 2, 3]


class TestRandom:
    def test_covers_all_members(self, members, rng):
        policy = RandomPolicy()
        picks = {policy.select(members, rng).index for _ in range(100)}
        assert picks == {0, 1, 2, 3}


class TestTwoChoices:
    def test_prefers_less_loaded(self, members, rng):
        policy = TwoChoicesPolicy()
        members[0].inflight = 10
        members[1].inflight = 10
        members[2].inflight = 0
        members[3].inflight = 10
        picks = [policy.select(members, rng) for _ in range(50)]
        # member 2 must win every comparison it appears in; roughly
        # half the samples include it.
        assert picks.count(members[2]) > 10
        for pick in picks:
            assert pick.inflight in (0, 10)

    def test_single_member(self, members, rng):
        policy = TwoChoicesPolicy()
        assert policy.select(members[:1], rng) is members[0]


class TestEwmaLatency:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EwmaLatencyPolicy(alpha=0)
        with pytest.raises(ConfigurationError):
            EwmaLatencyPolicy(alpha=1.5)

    def test_tracks_and_prefers_fast_members(self, members, rng):
        policy = EwmaLatencyPolicy(alpha=0.5)
        slow, fast = members[0], members[1]
        for member, latency in [(slow, 0.5), (fast, 0.01)]:
            request = make_request(member)
            request.dispatched_at = member.env.now
            member.env._now = latency  # simulate elapsed time
            policy.on_complete(member, request)
            member.env._now = 0.0
        assert slow.ewma_response_time > fast.ewma_response_time
        assert policy.select([slow, fast], rng) is fast

    def test_unknown_members_treated_as_fast(self, members, rng):
        policy = EwmaLatencyPolicy()
        members[3].ewma_response_time = 0.2
        pick = policy.select(members, rng)
        assert pick.index == 0  # no history sorts first

    def test_ewma_decays_history(self, members):
        policy = EwmaLatencyPolicy(alpha=0.5)
        member = members[0]
        member.ewma_response_time = 1.0
        request = make_request(member)
        request.dispatched_at = 0.0
        policy.on_complete(member, request)  # observed 0.0
        assert member.ewma_response_time == pytest.approx(0.5)


class TestPrequal:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PrequalProbeConfig(interval=0)
        with pytest.raises(ConfigurationError):
            PrequalProbeConfig(d=0)
        with pytest.raises(ConfigurationError):
            PrequalProbeConfig(staleness=-1)
        with pytest.raises(ConfigurationError):
            PrequalProbeConfig(hot_quantile=1.5)
        with pytest.raises(ConfigurationError):
            PrequalProbeConfig(pool=0)
        with pytest.raises(ConfigurationError):
            PrequalProbeConfig(latency_alpha=0)

    def test_configure_rejects_affinity(self):
        with pytest.raises(ConfigurationError):
            PrequalPolicy().configure(affinity={"fallback": "random"})

    def test_configure_accepts_mapping(self):
        policy = PrequalPolicy()
        policy.configure(probe={"interval": 0.1, "d": 3})
        assert policy.config.interval == 0.1
        assert policy.config.d == 3
        with pytest.raises(ConfigurationError):
            policy.configure(probe={"bogus_knob": 1})

    def test_cold_members_beat_hot_members(self, members, rng):
        """Hot/cold lexicographic rank: the probed-RIF quantile splits
        the pool; cold members sort by latency, hot by RIF."""
        policy = PrequalPolicy()
        # RIFs [0, 1, 2, 9] with hot_quantile .75 -> threshold 2, so
        # only member 3 is hot.  Member 1 has the best cold latency.
        for member, rif, latency in [(members[0], 0, 0.5),
                                     (members[1], 1, 0.01),
                                     (members[2], 2, 0.2),
                                     (members[3], 9, 0.001)]:
            policy.record_probe(member, rif, at=0.0, latency=latency)
        assert policy.select(members, rng) is members[1]
        # Without member 1, the next-fastest cold member wins — never
        # the hot one, however fast it probed.
        assert policy.select(
            [members[0], members[2], members[3]], rng) is members[2]

    def test_stale_probes_are_ignored(self, members, rng):
        policy = PrequalPolicy()
        # A glowing probe report for member 1 ... taken too long ago.
        policy.record_probe(members[1], 0, at=0.0, latency=0.0)
        members[1].inflight = 5
        env = members[0].env
        env._now = policy.config.staleness + 0.1
        try:
            # Fresh pool is empty, so the JSQ(d) fallback over
            # instantaneous in-flight picks member 0 instead.
            assert policy.select(members[:2], rng) is members[0]
            # At probe time the same report would have won.
            env._now = policy.config.staleness - 0.1
            assert policy.select(members[:2], rng) is members[1]
        finally:
            env._now = 0.0

    def test_fallback_without_probes_is_jsq(self, members, rng):
        policy = PrequalPolicy()
        members[0].inflight = 3
        members[1].inflight = 1
        assert policy.select(members[:2], rng) is members[1]

    def test_probe_pool_is_bounded(self, members, rng):
        policy = PrequalPolicy(PrequalProbeConfig(pool=2))
        for at, member in enumerate(members[:3]):
            policy.record_probe(member, 0, at=float(at), latency=0.0)
        assert len(policy._probes) == 2
        assert members[0].index not in policy._probes  # oldest evicted

    def test_completion_feeds_latency_ewma(self, members):
        policy = PrequalPolicy()
        member = members[0]
        request = make_request(member)
        request.dispatched_at = 0.0
        member.env._now = 0.4
        policy.on_complete(member, request)
        member.env._now = 0.0
        assert policy._ewma[member.index] == pytest.approx(0.4)


class TestJoinIdleQueue:
    def test_completion_marks_idle_and_wins_next_pick(self, members, rng):
        policy = JoinIdleQueuePolicy()
        for member in members:
            member.inflight = 2
        members[2].inflight = 0
        policy.on_complete(members[2], make_request(members[2]))
        assert policy.select(members, rng) is members[2]

    def test_never_picks_busy_while_idle_exists(self, members, rng):
        policy = JoinIdleQueuePolicy()
        for member in members:
            policy.on_complete(member, make_request(member))
        members[0].inflight = 4  # became busy after enqueueing
        pick = policy.select(members, rng)
        assert pick.inflight == 0

    def test_pick_consumes_the_idle_slot(self, members, rng):
        policy = JoinIdleQueuePolicy()
        policy.on_complete(members[1], make_request(members[1]))
        first = policy.select(members, rng)
        policy.on_pick(first, make_request(first))
        assert first is members[1]
        # The queue is drained; the fallback samples by in-flight.
        members[1].inflight = 9
        assert policy.select(members, rng) is not members[1]

    def test_abandoned_pick_requeues(self, members, rng):
        policy = JoinIdleQueuePolicy()
        request = make_request(members[1])
        policy.on_complete(members[1], request)
        pick = policy.select(members, rng)
        policy.on_pick(pick, request)
        policy.on_pick_abandoned(pick, request)
        assert policy.select(members, rng) is members[1]

    def test_state_transition_evicts(self, members, rng):
        from repro.core import MemberState

        policy = JoinIdleQueuePolicy()
        policy.on_complete(members[1], make_request(members[1]))
        members[1].state = MemberState.ERROR
        policy.on_member_state(members[1])
        members[2].inflight = 1
        members[3].inflight = 1
        members[0].inflight = 1
        pick = policy.select(members, rng)
        assert pick is not members[1] or members[1].index not in policy._idle_set

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JoinIdleQueuePolicy(d=0)


class TestWeightedLeastConn:
    def test_reduces_to_least_conn_at_unit_weights(self, members, rng):
        policy = WeightedLeastConnPolicy()
        members[0].inflight = 2
        members[1].inflight = 1
        assert policy.select(members[:2], rng) is members[1]

    def test_heavier_member_absorbs_more(self, members, rng):
        policy = WeightedLeastConnPolicy()
        members[0].weight = 2.0
        picks = []
        for _ in range(3):
            member = policy.select(members[:2], rng)
            member.inflight += 1
            picks.append(member.index)
        # Weight 2 vs 1: member 0 takes two picks before member 1's
        # (inflight+1)/weight catches up.
        assert picks == [0, 0, 1]


class TestStickySession:
    def test_no_request_uses_fallback(self, members, rng):
        policy = StickySessionPolicy()
        members[1].lb_value = -1  # current_load fallback ranks by lb
        assert policy.select(members, rng) is members[1]

    def test_pins_and_returns_pinned(self, members, rng):
        policy = StickySessionPolicy()
        request = make_request(members[0])
        first = policy.select(members, rng, request)
        # Make the pinned member look terrible; affinity still wins.
        first.lb_value = 100
        assert policy.select(members, rng, request) is first
        assert policy.violations == 0

    def test_violation_and_repin_on_ineligible_member(self, members, rng):
        policy = StickySessionPolicy()
        request = make_request(members[0])
        pinned = policy.select(members, rng, request)
        eligible = [m for m in members if m is not pinned]
        moved = policy.select(eligible, rng, request)
        assert moved is not pinned
        assert policy.violations == 1
        # The session re-pinned: the new member now holds the affinity.
        moved.lb_value = 100
        assert policy.select(members, rng, request) is moved
        assert policy.violations == 1

    def test_distinct_clients_pin_independently(self, members, rng):
        env = members[0].env
        policy = StickySessionPolicy()
        r1 = Request(env, 1, get_interaction("ViewStory"), 7)
        r2 = Request(env, 2, get_interaction("ViewStory"), 8)
        members[0].lb_value = 1
        a = policy.select(members, rng, r1)
        members[1].lb_value = 2
        b = policy.select(members, rng, r2)
        assert a is not b or a is policy._pins[7]
        assert policy._pins[7] is a
        assert policy._pins[8] is b

    def test_fallback_validation(self):
        with pytest.raises(ConfigurationError):
            StickyConfig(fallback="sticky")
        with pytest.raises(ConfigurationError):
            StickySessionPolicy(StickyConfig(fallback="nope"))

    def test_configure_swaps_fallback(self):
        policy = StickySessionPolicy()
        policy.configure(affinity={"fallback": "random"})
        assert policy.config.fallback == "random"
        with pytest.raises(ConfigurationError):
            policy.configure(probe={"d": 2})
