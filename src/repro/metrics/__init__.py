"""Measurement substrate: time series, windowed counters, recorders.

Everything the paper measures — point-in-time response times, 50 ms
VLRT windows, fine-grained CPU utilisation, queue-length timelines,
response-time distributions, Table-I summary statistics — is built
from the primitives in this package.
"""

from repro.metrics.distribution import ResponseTimeDistribution
from repro.metrics.recorder import CompletedRequest, ResponseTimeRecorder
from repro.metrics.stats import (
    NORMAL_THRESHOLD,
    VLRT_THRESHOLD,
    ResponseTimeStats,
    percentile,
)
from repro.metrics.timeseries import TimeSeries
from repro.metrics.windows import PAPER_WINDOW, BusyTracker, WindowedCounter

__all__ = [
    "TimeSeries",
    "WindowedCounter",
    "BusyTracker",
    "PAPER_WINDOW",
    "ResponseTimeStats",
    "ResponseTimeRecorder",
    "CompletedRequest",
    "ResponseTimeDistribution",
    "percentile",
    "VLRT_THRESHOLD",
    "NORMAL_THRESHOLD",
]
