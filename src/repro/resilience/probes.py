"""Active health probes, feeding member state out-of-band.

The paper's 3-state machine learns about backends only from request
traffic: a member's health is whatever the last endpoint probe said,
and an Error member waits out ``error_recovery`` before any request is
risked on it again.  Prequal's observation is that this couples health
discovery to user traffic exactly when traffic is the thing being
damaged.  :class:`HealthProber` decouples them: a per-member probe loop
periodically asks the backend for proof of life and updates the member
state (and its circuit breaker, when present) regardless of whether any
request happens to be in flight.

Consequences under the paper's fault taxonomy:

* a *crashed* member is marked Error after ``fail_threshold`` missed
  probes, without any worker having to block on it first;
* a *recovered* member is marked Available by the first successful
  probe — no ``error_recovery`` timer, no sacrificial user request;
* a *millibottlenecked* member fails probes only while the stall lasts
  (typically shorter than ``fail_threshold * interval``), so brief
  stalls don't eject it — and when they do, the very next successful
  probe undoes it.

Probe gaps are jittered from the build's seeded RNG so the probe
processes of many members don't fire in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.states import MemberState
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.core.member import BalancerMember
    from repro.sim.core import Environment


@dataclass(frozen=True)
class ProbeConfig:
    """Health-probe tuning knobs.

    ``interval`` is the mean gap between probes of one member (each gap
    gets up to ``jitter`` extra seconds, RNG-drawn); ``timeout`` is how
    long an unanswered probe waits before counting as failed;
    ``fail_threshold`` consecutive failures mark the member Error.
    """

    interval: float = 0.25
    timeout: float = 0.1
    fail_threshold: int = 3
    jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("interval must be positive")
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if self.fail_threshold < 1:
            raise ConfigurationError("fail_threshold must be >= 1")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")


class HealthProber:
    """Per-member probe loops for one balancer."""

    def __init__(self, env: "Environment",
                 members: Iterable["BalancerMember"],
                 config: ProbeConfig | None = None,
                 *,
                 rng: "np.random.Generator",
                 name: str = "prober") -> None:
        self.env = env
        self.config = config or ProbeConfig()
        self.name = name
        self.members = list(members)
        self._rng = rng
        self.probes_sent = 0
        self.probes_failed = 0
        #: Members marked Error by probes / recovered by probes.
        self.ejections = 0
        self.recoveries = 0
        self.processes = [env.process(self._probe_loop(member))
                          for member in self.members]

    def _probe_loop(self, member: "BalancerMember"):
        config = self.config
        consecutive = 0
        while True:
            gap = config.interval
            if config.jitter:
                gap += float(self._rng.uniform(0.0, config.jitter))
            yield self.env.timeout(gap)
            self.probes_sent += 1
            yield member.link.delay()
            if member.server.responsive:
                yield member.link.delay()
                consecutive = 0
                if member.breaker is not None:
                    member.breaker.record_success()
                if member.state is not MemberState.AVAILABLE:
                    # Proof of life beats any recovery timer.
                    self.recoveries += 1
                    member.mark_available()
            else:
                # Crashed, or every core stuck in iowait: no answer
                # within the probe timeout.
                yield self.env.timeout(config.timeout)
                self.probes_failed += 1
                consecutive += 1
                if member.breaker is not None:
                    member.breaker.record_failure()
                if consecutive == config.fail_threshold:
                    self.ejections += 1
                    member.mark_error()

    def __repr__(self) -> str:
        return "<HealthProber {} members={} sent={} failed={}>".format(
            self.name, len(self.members), self.probes_sent,
            self.probes_failed)
