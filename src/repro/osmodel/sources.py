"""Alternative millibottleneck sources beyond dirty-page flushing.

The paper's §III-A lists several known causes of millibottlenecks:
dirty-page flushing (modelled mechanistically by
:mod:`repro.osmodel.pdflush`), Java garbage collection, CPU DVFS
control latency, VM consolidation, and bursty workloads.  Its
conclusion argues the remedies generalise: "Other load balancers …
can take advantage of our remedies to shorten the latency tail caused
by scheduling instability when facing millibottlenecks caused by
other resource shortage."

This module provides a generic transient-stall injector and, built on
it, Java garbage-collection pauses, so the generalisation claim can be
tested (see the ablation benchmarks).
Each injector records ground truth into ``host.millibottlenecks`` just
like the flush daemon, keeping every detector and analysis usable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.osmodel.pdflush import MillibottleneckRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.osmodel.host import Host


class TransientStallInjector:
    """Injects full-CPU stalls with configurable timing.

    Parameters
    ----------
    host:
        Host to stall.
    interval:
        Zero-argument callable returning seconds until the next stall.
    duration:
        Zero-argument callable returning the stall length in seconds.
    label:
        Recorded on the ground-truth records (e.g. ``"gc"``).
    """

    def __init__(self, host: "Host",
                 interval: Callable[[], float],
                 duration: Callable[[], float],
                 label: str = "injected") -> None:
        self.host = host
        self.interval = interval
        self.duration = duration
        self.label = label
        self.stalls_injected = 0
        self._process = host.env.process(self._run())

    def _run(self):
        env = self.host.env
        while True:
            yield env.timeout(max(1e-6, float(self.interval())))
            length = max(1e-6, float(self.duration()))
            started_at = env.now
            yield from self.host.cpu.stall(length)
            self.stalls_injected += 1
            self.host.millibottlenecks.append(MillibottleneckRecord(
                host=self.host.name,
                started_at=started_at,
                ended_at=env.now,
                bytes_flushed=0.0,
            ))


class GarbageCollectionSource(TransientStallInjector):
    """Stop-the-world JVM garbage collection pauses.

    Pause frequency follows allocation pressure (one major collection
    per ``period`` seconds on average, exponentially distributed);
    pause length is log-normal around ``mean_pause`` — the classic
    shape of CMS/parallel-collector major pauses on mid-2010s heaps.
    """

    def __init__(self, host: "Host", rng: np.random.Generator,
                 period: float = 5.0, mean_pause: float = 0.15,
                 pause_sigma: float = 0.35) -> None:
        if period <= 0 or mean_pause <= 0:
            raise ConfigurationError("period and mean_pause must be positive")
        mu = float(np.log(mean_pause) - pause_sigma ** 2 / 2)
        super().__init__(
            host,
            interval=lambda: float(rng.exponential(period)),
            duration=lambda: float(rng.lognormal(mu, pause_sigma)),
            label="gc",
        )
