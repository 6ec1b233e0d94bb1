"""Time-series containers used by all measurement code.

A :class:`TimeSeries` is an append-only sequence of ``(time, value)``
pairs with the operations the analysis layer uses: slicing by time,
point lookups and min/max/mean reductions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import AnalysisError


class TimeSeries:
    """Append-only ``(time, value)`` series with analysis helpers."""

    def __init__(self, name: str = "",
                 points: Iterable[tuple[float, float]] = ()) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        for time, value in points:
            self.append(time, value)

    # -- construction ------------------------------------------------------
    def append(self, time: float, value: float) -> None:
        """Add a point; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise AnalysisError(
                "time went backwards: {} after {}".format(
                    time, self._times[-1]))
        self._times.append(float(time))
        self._values.append(float(value))

    @classmethod
    def from_arrays(cls, times: Sequence[float], values: Sequence[float],
                    name: str = "") -> "TimeSeries":
        if len(times) != len(values):
            raise AnalysisError("times and values differ in length")
        return cls(name, zip(times, values))

    # -- basic access --------------------------------------------------------
    @property
    def times(self) -> list[float]:
        return self._times

    @property
    def values(self) -> list[float]:
        return self._values

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    def __repr__(self) -> str:
        return "<TimeSeries {!r} n={}>".format(self.name, len(self))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as numpy arrays."""
        return np.asarray(self._times), np.asarray(self._values)

    # -- queries -------------------------------------------------------------
    def slice(self, start: float, end: float) -> "TimeSeries":
        """Points with ``start <= time < end``."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        out = TimeSeries(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def value_at(self, time: float) -> float:
        """Last recorded value at or before ``time`` (step interpolation)."""
        if not self._times:
            raise AnalysisError("empty series")
        index = bisect_right(self._times, time) - 1
        if index < 0:
            raise AnalysisError(
                "no sample at or before t={}".format(time))
        return self._values[index]

    def max(self) -> float:
        if not self._values:
            raise AnalysisError("empty series")
        return max(self._values)

    def min(self) -> float:
        if not self._values:
            raise AnalysisError("empty series")
        return min(self._values)

    def mean(self) -> float:
        if not self._values:
            raise AnalysisError("empty series")
        return float(np.mean(self._values))
