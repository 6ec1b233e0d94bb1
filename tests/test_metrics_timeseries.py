"""Unit tests for TimeSeries."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.metrics import TimeSeries


def make_series(points):
    return TimeSeries("test", points)


def test_append_and_iterate():
    series = make_series([(0.0, 1.0), (1.0, 2.0)])
    assert len(series) == 2
    assert list(series) == [(0.0, 1.0), (1.0, 2.0)]


def test_append_rejects_time_reversal():
    series = make_series([(5.0, 1.0)])
    with pytest.raises(AnalysisError):
        series.append(4.0, 1.0)


def test_equal_times_allowed():
    series = make_series([(1.0, 1.0), (1.0, 2.0)])
    assert len(series) == 2


def test_from_arrays_roundtrip():
    series = TimeSeries.from_arrays([0, 1, 2], [5, 6, 7], name="x")
    times, values = series.as_arrays()
    assert isinstance(times, np.ndarray)
    assert list(times) == [0, 1, 2]
    assert list(values) == [5, 6, 7]


def test_from_arrays_length_mismatch():
    with pytest.raises(AnalysisError):
        TimeSeries.from_arrays([0, 1], [5])


def test_slice_half_open():
    series = make_series([(0, 0), (1, 1), (2, 2), (3, 3)])
    sub = series.slice(1, 3)
    assert list(sub) == [(1.0, 1.0), (2.0, 2.0)]


def test_value_at_step_interpolation():
    series = make_series([(0, 10), (2, 20), (4, 30)])
    assert series.value_at(0) == 10
    assert series.value_at(1.9) == 10
    assert series.value_at(2.0) == 20
    assert series.value_at(100) == 30


def test_value_at_before_first_sample_raises():
    series = make_series([(5, 1)])
    with pytest.raises(AnalysisError):
        series.value_at(4.9)


def test_value_at_empty_raises():
    with pytest.raises(AnalysisError):
        TimeSeries().value_at(0)


def test_min_max_mean():
    series = make_series([(0, 3), (1, 9), (2, 6)])
    assert series.max() == 9
    assert series.min() == 3
    assert series.mean() == pytest.approx(6.0)


def test_stats_on_empty_raise():
    empty = TimeSeries()
    for method in (empty.max, empty.min, empty.mean):
        with pytest.raises(AnalysisError):
            method()


def test_repr_mentions_name_and_size():
    series = make_series([(0, 1)])
    series.name = "queue"
    assert "queue" in repr(series)
    assert "n=1" in repr(series)
