"""Response-time frequency distributions (Fig. 4).

The paper plots "frequency of requests by their response times" on a
log-ish time axis, which makes both the <10 ms mass and the VLRT
clusters at ~1 s / ~2 s / ~3 s visible at once.
:class:`ResponseTimeDistribution` reproduces that view with
logarithmically spaced buckets plus cluster detection around the TCP
retransmission times.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError


class ResponseTimeDistribution:
    """Log-bucketed histogram of response times.

    Parameters
    ----------
    low, high:
        Bucket range in seconds; samples outside are clamped into the
        first / last bucket.
    buckets_per_decade:
        Resolution of the log-spaced grid.
    """

    def __init__(self, low: float = 0.001, high: float = 10.0,
                 buckets_per_decade: int = 10) -> None:
        if low <= 0 or high <= low:
            raise AnalysisError("need 0 < low < high")
        if buckets_per_decade < 1:
            raise AnalysisError("buckets_per_decade must be >= 1")
        decades = math.log10(high / low)
        count = max(1, int(round(decades * buckets_per_decade)))
        self.edges = np.logspace(math.log10(low), math.log10(high),
                                 count + 1)
        self.counts = np.zeros(count, dtype=int)

    def add(self, response_time: float) -> None:
        """Record one response time (seconds)."""
        index = int(np.searchsorted(self.edges, response_time,
                                    side="right")) - 1
        index = min(max(index, 0), len(self.counts) - 1)
        self.counts[index] += 1

    def add_all(self, response_times: Sequence[float]) -> None:
        for response_time in response_times:
            self.add(response_time)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def bucket_centers(self) -> np.ndarray:
        """Geometric center of each bucket."""
        return np.sqrt(self.edges[:-1] * self.edges[1:])

    def mass_between(self, low: float, high: float) -> int:
        """Number of samples whose *bucket center* lies in [low, high)."""
        centers = self.bucket_centers()
        mask = (centers >= low) & (centers < high)
        return int(self.counts[mask].sum())

    def vlrt_clusters(self, targets: Sequence[float] = (1.0, 2.0, 3.0),
                      tolerance: float = 0.35) -> dict[float, int]:
        """Sample mass near each retransmission-induced cluster time.

        Each bucket is attributed to the *nearest* target, and only
        counts when its center lies within ``target * tolerance`` of
        that target, so adjacent clusters never double-count.  Fig. 4's
        three VLRT clusters sit at about 1 s, 2 s and 3 s.
        """
        if not targets:
            raise AnalysisError("need at least one cluster target")
        out = {target: 0 for target in targets}
        for center, count in zip(self.bucket_centers(), self.counts):
            nearest = min(targets, key=lambda t: abs(center - t))
            if abs(center - nearest) <= nearest * tolerance:
                out[nearest] += int(count)
        return out

    def rows(self) -> list[tuple[float, float, int]]:
        """(bucket_low, bucket_high, count) for report printing."""
        return [
            (float(self.edges[i]), float(self.edges[i + 1]),
             int(self.counts[i]))
            for i in range(len(self.counts))
        ]
