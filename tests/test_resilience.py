"""Tests for the remedy layer: retry, hedging, breakers, probes.

Unit tests pin each remedy's state machine; the integration tests wire
them through :func:`build_from_spec` / :class:`ExperimentRunner` and check
they actually change outcomes under injected faults.
"""

import numpy as np
import pytest

from repro.cluster import (
    ScaleProfile,
    SlowFault,
    build_from_spec,
)
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.core import MemberState
from repro.errors import ConfigurationError
from repro.resilience import (
    RESILIENCE_BUNDLES,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HedgePolicy,
    HedgingDispatcher,
    ProbeConfig,
    ResilienceConfig,
    RetryPolicy,
    get_resilience,
)
from repro.sim import Environment
from repro.workload import Request, get_interaction


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(request_timeout=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff=0.2, backoff_cap=0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0,
                             backoff_cap=0.35, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_before(1, rng) == pytest.approx(0.1)
        assert policy.backoff_before(2, rng) == pytest.approx(0.2)
        assert policy.backoff_before(3, rng) == pytest.approx(0.35)
        assert policy.backoff_before(9, rng) == pytest.approx(0.35)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=1.0,
                             backoff_cap=0.1, jitter=0.5)
        rng = np.random.default_rng(1)
        draws = [policy.backoff_before(1, rng) for _ in range(200)]
        assert all(0.05 <= b <= 0.15 for b in draws)
        assert max(draws) > 0.12 and min(draws) < 0.08

    def test_retry_index_validated(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_before(0, np.random.default_rng(0))


class TestBreakerConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(open_duration=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(half_open_trials=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(close_after=3, half_open_trials=2)


class TestCircuitBreaker:
    def make(self, env, **kwargs):
        defaults = dict(failure_threshold=3, open_duration=0.5,
                        half_open_trials=2, close_after=1)
        defaults.update(kwargs)
        return CircuitBreaker(env, BreakerConfig(**defaults))

    def test_trips_after_consecutive_failures(self):
        env = Environment()
        breaker = self.make(env)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_failure_streak(self):
        env = Environment()
        breaker = self.make(env)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_then_cools_down(self):
        env = Environment()
        breaker = self.make(env)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        assert breaker.rejections == 1
        assert not breaker.admits(env.now)
        env.run(until=0.6)
        # admits() is side-effect-free: still OPEN, but pickable.
        assert breaker.admits(env.now)
        assert breaker.state is BreakerState.OPEN
        # allow() does the transition and meters the trial.
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_trials_are_metered(self):
        env = Environment()
        breaker = self.make(env, half_open_trials=2)
        for _ in range(3):
            breaker.record_failure()
        env.run(until=0.6)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # batch exhausted, outcomes pending
        assert breaker.rejections == 1

    def test_half_open_success_closes(self):
        env = Environment()
        breaker = self.make(env, close_after=1)
        for _ in range(3):
            breaker.record_failure()
        env.run(until=0.6)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.closes == 1
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        env = Environment()
        breaker = self.make(env)
        for _ in range(3):
            breaker.record_failure()
        env.run(until=0.6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()

    def test_lost_trial_outcomes_admit_fresh_batch(self):
        env = Environment()
        breaker = self.make(env, half_open_trials=1)
        for _ in range(3):
            breaker.record_failure()
        env.run(until=0.6)
        assert breaker.allow()  # the trial whose outcome gets lost
        assert not breaker.allow()
        env.run(until=1.2)  # another open_duration with no verdict
        assert breaker.admits(env.now)
        assert breaker.allow()

    def test_stale_success_while_open_is_ignored(self):
        env = Environment()
        breaker = self.make(env)
        for _ in range(3):
            breaker.record_failure()
        breaker.record_success()
        assert breaker.state is BreakerState.OPEN


class FakeBalancer:
    """Inner dispatcher double for hedging: scripted per-call delays.

    Mirrors ``LoadBalancer.dispatch``'s contract: a process generator
    that annotates ``served_by``/``dispatched_at``, returns the request,
    and honours cooperative cancellation between scheduling rounds.
    """

    name = "lb"

    def __init__(self, env, delays):
        self.env = env
        self.delays = list(delays)
        self.calls = 0

    def dispatch(self, request):
        self.calls += 1
        backend = "tomcat{}".format(self.calls)
        remaining = self.delays[self.calls - 1]
        while remaining > 0:
            if request.cancelled:
                return request
            step = min(0.01, remaining)
            yield self.env.timeout(step)
            remaining -= step
        request.served_by = backend
        request.dispatched_at = self.env.now
        return request


class TestHedgingDispatcher:
    def make_request(self, env, request_id=1):
        return Request(env, request_id, get_interaction("ViewStory"), 0)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(delay=0)
        with pytest.raises(ConfigurationError):
            HedgePolicy(max_hedges=0)

    def test_fast_primary_never_hedges(self):
        env = Environment()
        inner = FakeBalancer(env, delays=[0.05])
        hedger = HedgingDispatcher(env, inner, HedgePolicy(delay=0.2))
        request = self.make_request(env)
        process = env.process(hedger.dispatch(request))
        env.run()
        assert process.value is request
        assert hedger.hedges_issued == 0
        assert inner.calls == 1
        assert request.served_by == "tomcat1"

    def test_hedge_wins_and_loser_is_cancelled(self):
        env = Environment()
        inner = FakeBalancer(env, delays=[1.0, 0.05])
        hedger = HedgingDispatcher(env, inner, HedgePolicy(delay=0.2))
        request = self.make_request(env, request_id=7)
        process = env.process(hedger.dispatch(request))
        env.run()
        assert process.value is request
        assert hedger.hedges_issued == 1
        assert hedger.hedge_wins == 1
        assert hedger.cancellations == 1
        # The winning clone's annotations were copied back.
        assert request.served_by == "tomcat2"
        assert request.dispatched_at == pytest.approx(0.25, abs=0.02)
        # The primary was told to stop and obeyed.
        assert request.cancelled is False or request.served_by == "tomcat2"
        assert inner.calls == 2

    def test_primary_win_after_hedge_issued(self):
        env = Environment()
        inner = FakeBalancer(env, delays=[0.3, 5.0])
        hedger = HedgingDispatcher(env, inner, HedgePolicy(delay=0.2))
        request = self.make_request(env)
        env.process(hedger.dispatch(request))
        env.run(until=2.0)
        assert hedger.hedges_issued == 1
        assert hedger.hedge_wins == 0
        assert hedger.cancellations == 1
        assert request.served_by == "tomcat1"

    def test_max_hedges_bounds_copies(self):
        env = Environment()
        inner = FakeBalancer(env, delays=[0.5, 0.5, 0.5, 0.5])
        hedger = HedgingDispatcher(env, inner,
                                   HedgePolicy(delay=0.1, max_hedges=2))
        request = self.make_request(env)
        env.process(hedger.dispatch(request))
        env.run(until=3.0)
        assert hedger.hedges_issued == 2
        assert inner.calls == 3


class TestProbeConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(interval=0)
        with pytest.raises(ConfigurationError):
            ProbeConfig(timeout=0)
        with pytest.raises(ConfigurationError):
            ProbeConfig(fail_threshold=0)
        with pytest.raises(ConfigurationError):
            ProbeConfig(jitter=-0.1)


def build_smoke(env, bundle_key, resilience=None):
    """The smoke-scale classic system, flushing off."""
    profile = ScaleProfile.smoke()
    spec = ExperimentConfig(bundle_key=bundle_key, profile=profile,
                            tomcat_millibottlenecks=False).spec()
    return build_from_spec(env, spec, rng=np.random.default_rng(0),
                           resilience=resilience)


class TestHealthProberIntegration:
    def build(self, env, resilience):
        return build_smoke(env, "current_load_modified", resilience)

    def test_probes_eject_crashed_member_without_traffic(self):
        env = Environment()
        system = self.build(env, ResilienceConfig(probes=ProbeConfig(
            interval=0.2, timeout=0.1, fail_threshold=3)))
        assert len(system.probers) == len(system.balancers)
        system.tiers["tomcat"][0].crash()
        env.run(until=2.0)
        # No client traffic at all: probes alone marked it Error.
        for balancer in system.balancers:
            assert balancer.members[0].state is MemberState.ERROR
        assert all(p.ejections >= 1 for p in system.probers)

    def test_probe_recovery_beats_error_recovery_timer(self):
        env = Environment()
        system = self.build(env, ResilienceConfig(probes=ProbeConfig(
            interval=0.2, timeout=0.1, fail_threshold=2)))
        system.tiers["tomcat"][0].crash()
        env.run(until=2.0)
        for balancer in system.balancers:
            assert balancer.members[0].state is MemberState.ERROR
        system.tiers["tomcat"][0].recover()
        # Default error_recovery is 10 s; the next successful probe
        # restores the member long before that.
        env.run(until=3.0)
        for balancer in system.balancers:
            assert balancer.members[0].state is MemberState.AVAILABLE
        assert all(p.recoveries >= 1 for p in system.probers)

    def test_probes_feed_member_breakers(self):
        env = Environment()
        system = self.build(env, ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=2),
            probes=ProbeConfig(interval=0.2, timeout=0.1,
                               fail_threshold=100)))
        system.tiers["tomcat"][0].crash()
        env.run(until=2.0)
        for balancer in system.balancers:
            breaker = balancer.members[0].breaker
            assert breaker is not None
            assert breaker.opens >= 1


class TestWiring:
    def test_get_resilience_and_bundles(self):
        assert not get_resilience("none").enabled
        assert get_resilience("full").enabled
        assert set(RESILIENCE_BUNDLES) >= {
            "none", "retry", "hedge", "breaker", "probes",
            "breaker+probes", "full"}
        with pytest.raises(ConfigurationError):
            get_resilience("bogus")

    def test_full_wiring_installs_every_remedy(self):
        env = Environment()
        system = build_smoke(env, "original_total_request",
                             get_resilience("full"))
        assert len(system.hedgers) == len(system.balancers)
        assert len(system.probers) == len(system.balancers)
        for apache, hedger in zip(system.frontends, system.hedgers):
            assert apache.dispatcher is hedger
        for balancer in system.balancers:
            assert balancer.mechanism.name.endswith("+breaker")
            assert all(m.breaker is not None for m in balancer.members)

    def test_no_resilience_leaves_system_untouched(self):
        env = Environment()
        system = build_smoke(env, "original_total_request",
                             resilience=None)
        assert system.hedgers == [] and system.probers == []
        for apache, balancer in zip(system.frontends, system.balancers):
            assert apache.dispatcher is balancer
            assert all(m.breaker is None for m in balancer.members)

    def test_breaker_count_must_match_members(self):
        env = Environment()
        system = build_smoke(env, "original_total_request")
        with pytest.raises(ConfigurationError):
            system.balancers[0].install_breakers([CircuitBreaker(env)])


def run_cell(resilience, faults=(), duration=6.0):
    config = ExperimentConfig(
        bundle_key="original_total_request",
        profile=ScaleProfile.smoke(),
        duration=duration, seed=42,
        trace_balancers=False,
        faults=tuple(faults), resilience=resilience)
    return ExperimentRunner(config).run()


SLOW = SlowFault("tomcat1", at=1.5, duration=2.5, factor=60.0)


class TestRemediesEndToEnd:
    def test_client_retry_fires_under_fail_slow(self):
        result = run_cell(ResilienceConfig(retry=RetryPolicy(
            request_timeout=0.3, max_attempts=3)), faults=[SLOW])
        assert result.population.retries_issued > 0
        assert result.metrics.retry_amplification() > 1.05
        baseline = run_cell(None, faults=[SLOW])
        # Retrying abandons stuck attempts: far fewer VLRT responses.
        assert (result.stats().vlrt_fraction
                < baseline.stats().vlrt_fraction)

    def test_hedging_fires_and_reduces_tail(self):
        result = run_cell(ResilienceConfig(hedge=HedgePolicy(delay=0.2)),
                          faults=[SLOW])
        assert result.metrics.hedges > 0
        hedger_wins = sum(h.hedge_wins for h in result.system.hedgers)
        assert hedger_wins > 0
        baseline = run_cell(None, faults=[SLOW])
        assert (result.stats().vlrt_fraction
                < baseline.stats().vlrt_fraction)

    def test_retry_amplification_is_one_without_remedies(self):
        result = run_cell(None)
        assert result.metrics.retry_amplification() == pytest.approx(1.0,
                                                             abs=0.02)
        assert result.metrics.availability() == pytest.approx(1.0)

    def test_summary_mirrors_result_metrics(self):
        """The pooled (pickled) metrics of a faulted, remedied run equal
        the live result's."""
        import pickle

        result = run_cell(ResilienceConfig(retry=RetryPolicy(
            request_timeout=0.3)), faults=[SLOW])
        metrics = result.metrics
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone == metrics
        assert clone.availability() == metrics.availability()
        assert clone.retry_amplification() > 1.0
        assert clone.goodput() == metrics.goodput()
        assert clone.errors_503 == metrics.errors_503
        assert clone.config.faults == (SLOW,)
