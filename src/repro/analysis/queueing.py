"""Queue-length analysis: peaks, tiers, and cross-tier comparison.

The paper's §III-B methodology: "We use queue length graph to determine
if there are millibottlenecks: large spikes in the graph represent an
abnormally large number of queued requests."  This module finds those
spikes, sums queues per tier, and lets peaks be compared across tiers
(:meth:`QueuePeak.overlaps` attributes a web-tier peak to a push-back
wave from the app tier).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.metrics.timeseries import TimeSeries


@dataclass(frozen=True)
class QueuePeak:
    """One contiguous interval where a queue exceeded the threshold."""

    server: str
    started_at: float
    ended_at: float
    peak_value: float
    peak_at: float

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    def overlaps(self, other: "QueuePeak", slack: float = 0.0) -> bool:
        """Whether two peaks coincide in time (within ``slack`` seconds)."""
        return (self.started_at - slack < other.ended_at
                and other.started_at - slack < self.ended_at)


def find_peaks(series: TimeSeries, threshold: float,
               server: str = "") -> list[QueuePeak]:
    """Contiguous intervals where the series is strictly above threshold.

    ``threshold`` should sit well above the normal operating level —
    a natural choice is a multiple of the series median.
    """
    if threshold < 0:
        raise AnalysisError("threshold must be >= 0")
    name = server or series.name
    peaks: list[QueuePeak] = []
    start = None
    peak_value = 0.0
    peak_at = 0.0
    previous_time = None
    for time, value in series:
        if value > threshold:
            if start is None:
                start = time
                peak_value = value
                peak_at = time
            elif value > peak_value:
                peak_value = value
                peak_at = time
        elif start is not None:
            peaks.append(QueuePeak(name, start, time, peak_value, peak_at))
            start = None
        previous_time = time
    if start is not None:
        end = previous_time if previous_time is not None else start
        peaks.append(QueuePeak(name, start, end, peak_value, peak_at))
    return peaks


def adaptive_threshold(series: TimeSeries, multiplier: float = 4.0,
                       floor: float = 5.0) -> float:
    """A spike threshold: ``max(floor, multiplier * mean)``.

    The mean of a queue-length series is dominated by normal operation
    (spikes are rare by definition), so a small multiple of it cleanly
    separates millibottleneck spikes from noise.
    """
    if not len(series):
        raise AnalysisError("empty series")
    return max(floor, multiplier * series.mean())


def tier_series(queue_series: dict[str, TimeSeries],
                prefix: str) -> TimeSeries:
    """Sum the queue series of every server whose name starts with
    ``prefix`` — the per-tier queue plots of Figs. 2(b), 8 and 12."""
    members = [series for name, series in queue_series.items()
               if name.startswith(prefix)]
    if not members:
        raise AnalysisError("no servers with prefix " + prefix)
    length = min(len(series) for series in members)
    out = TimeSeries(prefix + "-tier")
    for i in range(length):
        out.append(members[0].times[i],
                   sum(series.values[i] for series in members))
    return out
