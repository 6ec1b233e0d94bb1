"""Cache-aside tier: hit-ratio-driven demand shedding in front of a DB.

A :class:`CacheTier` sits mid-chain (service model ``cache`` in a
declarative topology).  Reads hit with a TTL- and warm-up-dependent
probability and are answered locally for a fraction of the tier's CPU
demand; misses pay the full worker-shaped cost *plus* the downstream
call, traced under a ``cache.miss_penalty`` span so the critical-path
explainer can attribute tail latency to cold caches.  Writes always
invalidate and always go downstream (write-through invalidation).

The interesting failure mode is the *cold restart*: :meth:`recover`
resets the warm-up clock, so a cache that crashes and fails back over
serves at a collapsed hit ratio and forwards nearly everything — the
paper's question "does the instability just move one tier down?" made
measurable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import NoCandidateError
from repro.osmodel.host import Host
from repro.tiers.base import Downstream, WorkerTier

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class CacheTier(WorkerTier):
    """Worker-shaped tier whose reads may be served from cache.

    ``hit_ratio`` is the asymptotic warm-cache maximum; the effective
    ratio is scaled by TTL freshness ``ttl / (ttl + churn)`` (``churn``
    = mean entry re-reference interval, so longer TTLs keep more
    entries fresh — hit ratio is monotone in TTL) and a cold-start
    curve ``1 - exp(-(now - warm_start) / warmup)``.
    """

    def __init__(self, env: "Environment", name: str, host: Host,
                 max_threads: int,
                 rng: np.random.Generator,
                 downstream: Optional[Downstream] = None,
                 role: str = "cache",
                 cpu_source: str = "tomcat_cpu",
                 hit_ratio: float = 0.8,
                 ttl: float = 60.0,
                 churn: float = 30.0,
                 warmup: float = 5.0,
                 hit_cpu_fraction: float = 0.1) -> None:
        super().__init__(env, name, host, max_threads,
                         downstream=downstream, role=role,
                         cpu_source=cpu_source)
        self._rng = rng
        self.hit_ratio = hit_ratio
        self.ttl = ttl
        self.churn = churn
        self.warmup = warmup
        self.hit_cpu_fraction = hit_cpu_fraction
        #: When this instance last started filling from empty.
        self.warm_start = env.now
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0
        self.cold_restarts = 0

    # -- cache model ---------------------------------------------------------
    @property
    def freshness(self) -> float:
        """TTL-driven fraction of entries still fresh when re-read."""
        return self.ttl / (self.ttl + self.churn)

    def effective_hit_ratio(self, now: Optional[float] = None) -> float:
        """The hit probability at time ``now`` (default: current time)."""
        if now is None:
            now = self.env.now
        ratio = self.hit_ratio * self.freshness
        if self.warmup > 0.0:
            age = max(0.0, now - self.warm_start)
            ratio *= 1.0 - math.exp(-age / self.warmup)
        return ratio

    def recover(self) -> None:
        """A restarted cache process comes back *empty*."""
        super().recover()
        self.warm_start = self.env.now
        self.cold_restarts += 1

    # -- data path -----------------------------------------------------------
    def _worker(self):
        # Same skeleton as WorkerTier._worker, with the cache decision
        # spliced in between the queue wait and the downstream call.
        while True:
            request, reply = yield self.jobs.get()
            self._busy_threads += 1
            tracer = self.env.tracer
            span = None
            if tracer is not None:
                tracer.finish_named(request.request_id,
                                    self._span_queue_wait)
                span = tracer.start(request.request_id, self._span_service,
                                    server=self.name)
            try:
                yield from self._serve_cached(request, reply, tracer)
            finally:
                self._busy_threads -= 1
                if tracer is not None:
                    tracer.finish(span)

    def _serve_cached(self, request, reply, tracer):
        interaction = request.interaction
        demand = getattr(interaction, self.cpu_source)
        is_write = getattr(interaction, "is_write", False)
        if not is_write and float(self._rng.random()) \
                < self.effective_hit_ratio():
            # Hit: answered from memory, no downstream work.
            self.hits += 1
            yield from self.host.execute(demand * self.hit_cpu_fraction)
            self.requests_completed += 1
            self.bytes_served += interaction.traffic_bytes
            reply.succeed(request)
            return
        if is_write:
            self.writes += 1
            self.invalidations += 1
        else:
            self.misses += 1
        yield from self.host.execute(demand * self.pre_fraction)
        if self.downstream is not None:
            miss_span = (tracer.start(request.request_id,
                                      "cache.miss_penalty",
                                      server=self.name, write=is_write)
                         if tracer is not None else None)
            try:
                yield from self.downstream(request)
            except NoCandidateError:
                self.error_responses += 1
                if tracer is not None:
                    tracer.instant(request.request_id, self._span_error)
                reply.succeed(request)
                return
            finally:
                if tracer is not None:
                    tracer.finish(miss_span)
        yield from self.host.execute(demand * (1.0 - self.pre_fraction))
        self.host.write_file(interaction.log_bytes)
        self.requests_completed += 1
        self.bytes_served += interaction.traffic_bytes
        reply.succeed(request)
