"""Per-request response-time recording.

The :class:`ResponseTimeRecorder` collects one
:class:`CompletedRequest` per finished request and can answer every
response-time question the paper's figures ask: Table I summary rows,
point-in-time response-time series (Figs. 1 & 3), per-window VLRT
counts (Figs. 2a/6a/7a), and the response-time frequency distribution
(Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.stats import VLRT_THRESHOLD, ResponseTimeStats
from repro.metrics.timeseries import TimeSeries
from repro.metrics.windows import PAPER_WINDOW, WindowedCounter, window_start


@dataclass(frozen=True)
class CompletedRequest:
    """One finished request, as seen end-to-end by its client."""

    request_id: int
    interaction: str
    started_at: float
    finished_at: float
    #: How many times the initial packet was dropped and retransmitted.
    retransmissions: int = 0
    #: Which backend (application server) finally served the request.
    served_by: Optional[str] = None

    @property
    def response_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def is_vlrt(self) -> bool:
        return self.response_time > VLRT_THRESHOLD


class ResponseTimeRecorder:
    """Collects completed requests and derives the paper's metrics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.requests: list[CompletedRequest] = []

    def record(self, request: CompletedRequest) -> None:
        """Add one completed request."""
        self.requests.append(request)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def response_times(self) -> list[float]:
        return [r.response_time for r in self.requests]

    def stats(self) -> ResponseTimeStats:
        """Table-I style summary statistics."""
        return ResponseTimeStats.from_samples(self.response_times)

    def point_in_time(self, window: float = PAPER_WINDOW) -> TimeSeries:
        """Max response time per completion window (Figs. 1 & 3).

        Point-in-time response time is plotted against *completion* time
        and uses the worst request in each window so that VLRT spikes
        are visible rather than averaged away.
        """
        ordered = sorted(self.requests, key=lambda r: r.finished_at)
        series = TimeSeries(self.name + ".rt")
        for request in ordered:
            series_append_max(series, request.finished_at, window,
                              request.response_time)
        return series

    def vlrt_windows(self, window: float = PAPER_WINDOW,
                     until: Optional[float] = None) -> TimeSeries:
        """VLRT count per window of completion time (Figs. 2a/6a/7a)."""
        counter = WindowedCounter(window, self.name + ".vlrt")
        for request in self.requests:
            if request.is_vlrt:
                counter.record(request.finished_at)
        return counter.series(until=until)

    def vlrt_requests(self) -> list[CompletedRequest]:
        """All requests that exceeded the VLRT threshold."""
        return [r for r in self.requests if r.is_vlrt]

    def served_by_counts(self, start: float = 0.0,
                         end: float = float("inf")) -> dict[str, int]:
        """How many completions each backend produced in ``[start, end)``.

        This is the per-backend workload distribution check of §II-B.
        """
        counts: dict[str, int] = {}
        for request in self.requests:
            if request.served_by is None:
                continue
            if start <= request.finished_at < end:
                counts[request.served_by] = counts.get(
                    request.served_by, 0) + 1
        return counts

    def retransmitted(self) -> list[CompletedRequest]:
        """Requests that needed at least one retransmission."""
        return [r for r in self.requests if r.retransmissions > 0]


def series_append_max(series: TimeSeries, time: float, window: float,
                      value: float) -> None:
    """Append ``value`` bucketed to ``window``, keeping per-bucket max.

    Requests are processed in completion order so bucket starts are
    non-decreasing; an arrival for the current bucket updates the last
    point in place.
    """
    bucket_start = window_start(time, window)
    if series.times and series.times[-1] == bucket_start:
        if value > series.values[-1]:
            series.values[-1] = value
    else:
        series.append(bucket_start, value)
