"""The get_endpoint mechanism — the lower level of mod_jk's scheduler.

:class:`OriginalGetEndpoint` is Algorithm 1 from the paper: poll the
chosen candidate for a free endpoint, sleeping ``JK_SLEEP_DEF`` between
probes, until ``cache_acquire_timeout`` elapses.  The candidate's state
and lb_value are *not* updated while polling — so during a
millibottleneck shorter than the timeout the stalled server both stays
"Available" and holds the best lb_value, and every worker thread of
every Apache funnels into this loop (§IV-B).

:class:`ModifiedGetEndpoint` is the paper's mechanism-level remedy
(§IV-C): probe exactly once; if the candidate cannot respond
immediately, give up so the balancer can mark it Busy and move on.
Conservative by design — a millibottleneck is indistinguishable from a
permanent failure in the moment, and a busy verdict is cheap to undo.
"""

from __future__ import annotations

from repro.core.member import BalancerMember
from repro.errors import ConfigurationError

#: mod_jk's default cache_acquire_timeout (seconds).
DEFAULT_CACHE_ACQUIRE_TIMEOUT = 0.300
#: mod_jk's default JK_SLEEP_DEF (seconds).
DEFAULT_JK_SLEEP = 0.100


class GetEndpointMechanism:
    """Interface: obtain an endpoint from a candidate, or fail."""

    name = "abstract"

    def get_endpoint(self, member: BalancerMember):
        """Process generator returning an :class:`Endpoint` or ``None``."""
        raise NotImplementedError  # pragma: no cover

    def __repr__(self) -> str:
        return "<Mechanism {}>".format(self.name)


class OriginalGetEndpoint(GetEndpointMechanism):
    """Algorithm 1: poll-with-sleep until the timeout elapses."""

    name = "original"

    def __init__(self,
                 cache_acquire_timeout: float = DEFAULT_CACHE_ACQUIRE_TIMEOUT,
                 jk_sleep: float = DEFAULT_JK_SLEEP) -> None:
        if cache_acquire_timeout < 0:
            raise ConfigurationError("cache_acquire_timeout must be >= 0")
        if jk_sleep <= 0:
            raise ConfigurationError("jk_sleep must be positive")
        self.cache_acquire_timeout = cache_acquire_timeout
        self.jk_sleep = jk_sleep
        #: Seconds worker threads spent blocked inside the poll loop.
        self.time_spent_polling = 0.0
        self.timeouts = 0

    def get_endpoint(self, member: BalancerMember):
        retry = 0
        started = member.env.now
        while True:
            endpoint = member.try_acquire()
            if endpoint is not None:
                self.time_spent_polling += member.env.now - started
                return endpoint  # statan: ignore[PROC003] -- process value
            retry += 1
            if retry * self.jk_sleep >= self.cache_acquire_timeout:
                break
            yield member.env.timeout(self.jk_sleep)
        # Final sleep before giving up, as in the pseudo code's last
        # loop iteration.
        yield member.env.timeout(self.jk_sleep)
        self.time_spent_polling += member.env.now - started
        self.timeouts += 1
        return None  # statan: ignore[PROC003] -- process value


class ModifiedGetEndpoint(GetEndpointMechanism):
    """§IV-C remedy: a single immediate probe, no polling.

    "When the load balancer tries to find a free endpoint from the
    candidate, if the candidate cannot respond, the load balancer
    should skip it and move it to busy state instead of continuing to
    check it for a very short period."
    """

    name = "modified"

    def __init__(self) -> None:
        self.immediate_failures = 0

    def get_endpoint(self, member: BalancerMember):
        endpoint = member.try_acquire()
        if endpoint is None:
            self.immediate_failures += 1
            return None
        return endpoint
        # Unreachable: its presence alone makes this a generator, so the
        # mechanism interface stays uniform.
        yield  # pragma: no cover - generator trick; statan: ignore[PROC001]


class BreakerGuardedMechanism(GetEndpointMechanism):
    """Feed endpoint-acquisition outcomes into the member's breaker.

    Installed by ``LoadBalancer.install_breakers`` around the paper's
    mechanisms: every acquisition attempt against a member with a
    breaker reports its verdict (an endpoint is proof of life, a
    ``None`` is a failure), which is what drives the breaker's
    closed -> open escalation.  Admission gating itself happens on the
    dispatch path *before* the mechanism runs, so an open breaker never
    ties up a worker inside ``get_endpoint`` at all.
    """

    def __init__(self, inner: GetEndpointMechanism) -> None:
        self.inner = inner
        self.name = inner.name + "+breaker"

    def get_endpoint(self, member: BalancerMember):
        endpoint = yield from self.inner.get_endpoint(member)
        breaker = member.breaker
        if breaker is not None:
            if endpoint is None:
                breaker.record_failure()
            else:
                breaker.record_success()
        return endpoint  # statan: ignore[PROC003] -- process value


#: Mechanism registry for scenario lookups.
MECHANISMS: dict[str, type] = {
    OriginalGetEndpoint.name: OriginalGetEndpoint,
    ModifiedGetEndpoint.name: ModifiedGetEndpoint,
}


def make_mechanism(name: str) -> GetEndpointMechanism:
    """Instantiate a mechanism by registry name."""
    try:
        return MECHANISMS[name]()
    except KeyError:
        raise ConfigurationError("unknown mechanism: " + name) from None
