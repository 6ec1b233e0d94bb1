"""Lag-aware correlation.

The final link of the paper's causal chain — queue spikes to VLRT
completions — is *delayed*: a packet dropped during a queue spike only
completes one or more retransmission periods later.  Zero-lag Pearson
correlation misses it entirely; shifting the VLRT series back by the
retransmission timer makes the link visible and testable.
"""

from __future__ import annotations

from repro.analysis.correlation import pearson
from repro.errors import AnalysisError
from repro.metrics.timeseries import TimeSeries


def shift(series: TimeSeries, offset: float) -> TimeSeries:
    """Copy of ``series`` with every timestamp moved by ``offset``.

    Points whose shifted time would be negative are dropped (a series
    cannot start before t=0 in this framework).
    """
    out = TimeSeries(series.name)
    for time, value in series:
        if time + offset >= 0:
            out.append(time + offset, value)
    return out


def lagged_pearson(cause: TimeSeries, effect: TimeSeries,
                   lag: float) -> float:
    """Correlation of ``cause(t)`` with ``effect(t + lag)``."""
    if lag < 0:
        raise AnalysisError("lag must be >= 0 (cause precedes effect)")
    return pearson(cause, shift(effect, -lag))


def best_lag(cause: TimeSeries, effect: TimeSeries,
             max_lag: float, step: float) -> tuple[float, float]:
    """Scan lags in ``[0, max_lag]`` and return ``(lag, correlation)``
    of the strongest positive relationship.

    Applied to queue spikes vs VLRT windows, the winning lag recovers
    the TCP retransmission timer (~1 s) from the data alone.
    """
    if max_lag < 0 or step <= 0:
        raise AnalysisError("need max_lag >= 0 and step > 0")
    best = (0.0, lagged_pearson(cause, effect, 0.0))
    lag = step
    while lag <= max_lag + 1e-9:
        r = lagged_pearson(cause, effect, lag)
        if r > best[1]:
            best = (lag, r)
        lag += step
    return best
