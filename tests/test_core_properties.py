"""Property-based tests for the balancer core and network layer."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CurrentLoadPolicy,
    JoinIdleQueuePolicy,
    PrequalPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    StickySessionPolicy,
    TotalRequestPolicy,
    TotalTrafficPolicy,
    TwoChoicesPolicy,
    WeightedLeastConnPolicy,
)
from repro.core.member import BalancerMember
from repro.metrics import CompletedRequest, ResponseTimeRecorder
from repro.metrics.stats import ResponseTimeStats
from repro.netmodel import RetransmissionPolicy
from repro.osmodel import Host
from repro.sim import Environment
from repro.tiers import PooledTier, WorkerTier
from repro.workload import Request, get_interaction


def build_members(count=4):
    env = Environment()
    mysql = PooledTier(env, "mysql1", Host(env, "mysql1"),
                       max_connections=48)
    members = []
    for i in range(count):
        name = "tomcat{}".format(i + 1)
        tomcat = WorkerTier(env, name, Host(env, name), max_threads=2,
                            downstream=mysql.query)
        members.append(BalancerMember(env, tomcat, index=i, trace=False))
    return env, members


def fresh_request(env, i=0):
    return Request(env, i, get_interaction("ViewStory"), 0)


policy_factories = st.sampled_from([
    TotalRequestPolicy, TotalTrafficPolicy, CurrentLoadPolicy,
    RoundRobinPolicy, RandomPolicy, TwoChoicesPolicy,
    PrequalPolicy, JoinIdleQueuePolicy, WeightedLeastConnPolicy,
    StickySessionPolicy,
])


@given(policy_factories,
       st.lists(st.integers(min_value=0, max_value=3),
                min_size=1, max_size=200),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60)
def test_every_policy_always_returns_an_eligible_member(
        policy_factory, ops, seed):
    """Whatever sequence of pick/dispatch/complete events occurs, the
    policy's select() must return one of the offered members."""
    env, members = build_members()
    policy = policy_factory()
    rng = np.random.default_rng(seed)
    outstanding = []
    for op in ops:
        if op in (0, 1):  # pick and dispatch
            member = policy.select(members, rng)
            assert member in members
            request = fresh_request(env)
            request.dispatched_at = 0.0
            policy.on_pick(member, request)
            policy.on_dispatch(member, request)
            member.inflight += 1
            outstanding.append((member, request))
        elif op == 2 and outstanding:  # complete oldest
            member, request = outstanding.pop(0)
            member.inflight -= 1
            policy.on_complete(member, request)
        elif op == 3 and outstanding:  # abandon newest
            member, request = outstanding.pop()
            member.inflight -= 1
            policy.on_pick_abandoned(member, request)
        assert all(member.lb_value >= 0 for member in members)
        assert all(member.inflight >= 0 for member in members)


@given(st.lists(st.integers(min_value=0, max_value=3),
                min_size=4, max_size=400))
@settings(max_examples=60)
def test_current_load_lb_value_tracks_outstanding_picks(ops):
    """current_load's lb_value equals picks minus completions (never
    below zero) for any interleaving."""
    env, members = build_members(1)
    member = members[0]
    policy = CurrentLoadPolicy()
    pending = 0
    for op in ops:
        request = fresh_request(env)
        if op in (0, 1):
            policy.on_pick(member, request)
            pending += 1
        elif op == 2 and pending:
            policy.on_complete(member, request)
            pending -= 1
        elif op == 3 and pending:
            policy.on_pick_abandoned(member, request)
            pending -= 1
        assert member.lb_value == pending


@given(st.floats(min_value=0.01, max_value=5.0),
       st.floats(min_value=1.0, max_value=3.0),
       st.integers(min_value=0, max_value=8))
def test_retransmission_timers_are_monotone(initial_rto, backoff,
                                            attempts):
    """Total elapsed time to the n-th retransmit grows monotonically
    and matches the geometric sum."""
    policy = RetransmissionPolicy(initial_rto=initial_rto,
                                  backoff=backoff, max_retries=10)
    total = 0.0
    previous = 0.0
    for attempt in range(attempts):
        rto = policy.rto_after(attempt)
        assert rto >= previous * (1.0 if backoff == 1.0 else 0.999)
        previous = rto
        total += rto
    expected = sum(initial_rto * backoff ** k for k in range(attempts))
    assert total == pytest.approx(expected)


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0,
                          allow_nan=False),
                min_size=1, max_size=300))
def test_response_time_stats_consistency(samples):
    """Counts partition, percentiles order, mean within [min, max]."""
    stats = ResponseTimeStats.from_samples(samples)
    assert stats.count == len(samples)
    mid_range = sum(1 for s in samples if 0.01 <= s <= 1.0)
    assert stats.vlrt_count + stats.normal_count + mid_range == stats.count
    # Float-summation rounding can put the mean a few ULPs outside the
    # sample range for near-identical samples.
    assert min(samples) * (1 - 1e-12) <= stats.mean
    assert stats.mean <= max(samples) * (1 + 1e-12)
    assert stats.median <= stats.p95 + 1e-12
    assert stats.p95 <= stats.p99 + 1e-12
    assert stats.p999 <= stats.max + 1e-12
    assert stats.vlrt_fraction == pytest.approx(
        stats.vlrt_count / stats.count)


# -- the modern-policy zoo ---------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=3),
                min_size=1, max_size=200),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60)
def test_jiq_never_picks_busy_while_an_idle_member_exists(ops, seed):
    """JIQ's defining invariant: as long as some member is idle (zero
    in flight), a pick never lands on a busy one."""
    env, members = build_members()
    policy = JoinIdleQueuePolicy()
    for member in members:
        policy.on_member_added(member)
    rng = np.random.default_rng(seed)
    outstanding = []
    for op in ops:
        if op in (0, 1):  # pick and dispatch
            member = policy.select(members, rng)
            if any(m.inflight == 0 for m in members):
                assert member.inflight == 0
            request = fresh_request(env)
            request.dispatched_at = 0.0
            policy.on_pick(member, request)
            policy.on_dispatch(member, request)
            member.inflight += 1
            outstanding.append((member, request))
        elif op == 2 and outstanding:  # complete oldest
            member, request = outstanding.pop(0)
            member.inflight -= 1
            policy.on_complete(member, request)
        elif op == 3 and outstanding:  # abandon newest
            member, request = outstanding.pop()
            member.inflight -= 1
            policy.on_pick_abandoned(member, request)


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0, max_value=5, allow_nan=False)),
    min_size=1, max_size=16))
@settings(max_examples=80)
def test_prequal_rank_is_a_total_order_respecting_hot_cold(entries):
    """rank_key induces a strict total order in which every cold member
    (RIF at or below the hot-quantile threshold) precedes every hot
    member; cold sorts by latency, hot by RIF."""
    policy = PrequalPolicy()
    rifs = sorted(rif for rif, _ in entries)
    threshold = rifs[int(policy.config.hot_quantile * (len(rifs) - 1))]
    keyed = [(policy.rank_key(SimpleNamespace(index=i), rif, latency,
                              threshold), i, rif, latency)
             for i, (rif, latency) in enumerate(entries)]
    keys = [key for key, _, _, _ in keyed]
    assert len(set(keys)) == len(keys)  # strict: index breaks all ties
    ranked = sorted(keyed)
    cold = [(i, rif, lat) for _, i, rif, lat in ranked
            if rif <= threshold]
    hot = [(i, rif, lat) for _, i, rif, lat in ranked if rif > threshold]
    assert cold  # the minimum RIF is never above the quantile threshold
    # Every cold member outranks every hot member.
    assert [i for _, i, rif, _ in ranked if rif <= threshold] \
        == [i for i, _, _ in cold]
    assert ranked[:len(cold)] == [
        (policy.rank_key(SimpleNamespace(index=i), rif, lat, threshold),
         i, rif, lat) for i, rif, lat in cold]
    # Cold order is by probed latency; hot order is by probed RIF.
    assert cold == sorted(cold, key=lambda e: (e[2], e[1], e[0]))
    assert hot == sorted(hot, key=lambda e: (e[1], e[2], e[0]))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=120),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60)
def test_sticky_violations_fire_exactly_when_the_pin_is_ineligible(
        requests, seed):
    """The violation counter increments iff a pinned client's member is
    missing from the eligible list — and an eligible pin is honoured."""
    env, members = build_members()
    policy = StickySessionPolicy()
    rng = np.random.default_rng(seed)
    subsets = [members, members[:2], members[2:], members[1:]]
    pins = {}
    for serial, (client, subset_choice) in enumerate(requests):
        eligible = subsets[subset_choice]
        request = Request(env, serial, get_interaction("ViewStory"),
                          client)
        before = policy.violations
        member = policy.select(eligible, rng, request)
        assert member in eligible
        pinned = pins.get(client)
        if pinned is not None and pinned in eligible:
            assert member is pinned
            assert policy.violations == before
        elif pinned is not None:
            assert policy.violations == before + 1
        else:
            assert policy.violations == before
        pins[client] = member


@given(st.lists(st.integers(min_value=1, max_value=4),
                min_size=2, max_size=4),
       st.integers(min_value=1, max_value=120))
@settings(max_examples=60)
def test_weighted_least_conn_keeps_loads_proportional_to_weights(
        weights, picks):
    """Greedy (inflight+1)/weight selection keeps every pair of members
    within one slot of perfect weight proportionality."""
    env, members = build_members(len(weights))
    for member, weight in zip(members, weights):
        member.weight = float(weight)
    policy = WeightedLeastConnPolicy()
    rng = np.random.default_rng(1)
    for _ in range(picks):
        member = policy.select(members, rng)
        member.inflight += 1
    for a in members:
        for b in members:
            assert (a.inflight / a.weight - b.inflight / b.weight
                    <= 1.0 / b.weight + 1e-9)


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=50, allow_nan=False),
    st.floats(min_value=1e-4, max_value=5, allow_nan=False)),
    min_size=1, max_size=100))
@settings(max_examples=50)
def test_recorder_windows_conserve_vlrt_counts(pairs):
    """Summing VLRT windows always reproduces the total VLRT count."""
    recorder = ResponseTimeRecorder()
    for i, (start, duration) in enumerate(pairs):
        recorder.record(CompletedRequest(i, "ViewStory", start,
                                         start + duration))
    series = recorder.vlrt_windows()
    assert sum(series.values) == sum(
        1 for _, duration in pairs if duration > 1.0)
