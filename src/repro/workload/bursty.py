"""Open-loop and bursty request generation.

The paper's §III-A lists *bursty workloads* among the causes of
millibottlenecks: a short arrival burst can transiently saturate a
tier's CPU with no OS involvement at all.  The closed-loop RUBBoS
clients cannot express this (their arrival rate is self-limiting), so
this module adds an open-loop generator whose rate is modulated by an
on/off burst process — the standard Markov-modulated Poisson shape.

Open-loop requests are fire-and-forget from the generator's point of
view; completions are still recorded per request, so every metric and
analysis works unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.recorder import CompletedRequest, ResponseTimeRecorder
from repro.netmodel.tcp import GaveUp, RetransmissionPolicy, TcpSender
from repro.workload.mix import WorkloadMix
from repro.workload.request import Request
from repro.workload.session import Session

if TYPE_CHECKING:  # pragma: no cover
    from repro.netmodel.sockets import ListenSocket
    from repro.sim.core import Environment


class BurstProfile:
    """Markov-modulated rate: quiet baseline with on/off bursts.

    Parameters
    ----------
    base_rate:
        Requests per second outside bursts.
    burst_rate:
        Requests per second inside bursts.
    burst_duration:
        Mean burst length in seconds (exponential).
    quiet_duration:
        Mean gap between bursts in seconds (exponential).
    """

    def __init__(self, base_rate: float, burst_rate: float,
                 burst_duration: float = 0.2,
                 quiet_duration: float = 2.0) -> None:
        if base_rate <= 0 or burst_rate <= 0:
            raise ConfigurationError("rates must be positive")
        if burst_rate < base_rate:
            raise ConfigurationError("burst_rate must be >= base_rate")
        if burst_duration <= 0 or quiet_duration <= 0:
            raise ConfigurationError("durations must be positive")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.burst_duration = burst_duration
        self.quiet_duration = quiet_duration

    @classmethod
    def steady(cls, rate: float) -> "BurstProfile":
        """Plain Poisson arrivals at ``rate`` (degenerate profile)."""
        return cls(base_rate=rate, burst_rate=rate)


class OpenLoopGenerator:
    """Sends requests at a (possibly bursty) rate, ignoring responses.

    Each generated request runs through a private process that handles
    TCP retransmission and records the completion; unlike the closed
    loop, new arrivals never wait for old ones.
    """

    _next_request_id = 10_000_000  # distinct from closed-loop ids

    def __init__(self, env: "Environment", socket: "ListenSocket",
                 mix: WorkloadMix, profile: BurstProfile,
                 rng: np.random.Generator,
                 recorder: Optional[ResponseTimeRecorder] = None,
                 retransmission: Optional[RetransmissionPolicy] = None
                 ) -> None:
        self.env = env
        self.socket = socket
        self.profile = profile
        self.recorder = recorder or ResponseTimeRecorder("open-loop")
        self.sender = TcpSender(env, retransmission)
        self._rng = rng
        self._session = Session(mix, rng)
        self._bursting = False
        self.requests_sent = 0
        self.requests_abandoned = 0
        self._rate_process = env.process(self._modulate())
        self._arrival_process = env.process(self._generate())

    @property
    def bursting(self) -> bool:
        """Whether the generator is currently inside a burst."""
        return self._bursting

    @property
    def current_rate(self) -> float:
        return (self.profile.burst_rate if self._bursting
                else self.profile.base_rate)

    def _modulate(self):
        if self.profile.burst_rate == self.profile.base_rate:
            return  # steady profile: nothing to modulate
        while True:
            yield self.env.timeout(
                self._rng.exponential(self.profile.quiet_duration))
            self._bursting = True
            yield self.env.timeout(
                self._rng.exponential(self.profile.burst_duration))
            self._bursting = False

    def _generate(self):
        while True:
            yield self.env.timeout(
                self._rng.exponential(1.0 / self.current_rate))
            interaction = self._session.next_interaction()
            type(self)._next_request_id += 1
            request = Request(self.env, self._next_request_id,
                              interaction, client_id=-1)
            self.requests_sent += 1
            self.env.process(self._deliver(request))

    def _deliver(self, request: Request):
        try:
            request.retransmissions = yield from self.sender.send(
                self.socket, request)
        except GaveUp:
            request.completion.defuse()
            self.requests_abandoned += 1
            return
        yield request.completion
        self.recorder.record(CompletedRequest(
            request_id=request.request_id,
            interaction=request.interaction.name,
            started_at=request.created_at,
            finished_at=self.env.now,
            retransmissions=request.retransmissions,
            served_by=request.served_by,
        ))
