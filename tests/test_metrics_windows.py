"""Unit tests for WindowedCounter and BusyTracker."""

import pytest

from repro.errors import AnalysisError
from repro.metrics import PAPER_WINDOW, BusyTracker, WindowedCounter


class TestWindowedCounter:
    def test_default_window_is_50ms(self):
        assert WindowedCounter().window == PAPER_WINDOW == 0.050

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedCounter(window=0)
        counter = WindowedCounter()
        with pytest.raises(AnalysisError):
            counter.record(-0.1)

    def test_counts_land_in_right_window(self):
        counter = WindowedCounter(window=0.05)
        counter.record(0.01)
        counter.record(0.049)
        counter.record(0.05)
        counter.record(0.23, count=3)
        assert counter.series().values == [2, 1, 0, 0, 3]
        assert counter.total == 6

    def test_series_is_dense_with_zeros(self):
        counter = WindowedCounter(window=0.1)
        counter.record(0.05)
        counter.record(0.35)
        series = counter.series()
        assert series.times == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert series.values == [1, 0, 0, 1]

    def test_series_until_extends_with_zeros(self):
        counter = WindowedCounter(window=0.1)
        counter.record(0.05)
        series = counter.series(until=0.5)
        assert len(series) == 5
        assert series.values == [1, 0, 0, 0, 0]

    def test_empty_series(self):
        assert len(WindowedCounter().series()) == 0

    def test_peak(self):
        counter = WindowedCounter(window=0.1)
        counter.record(0.05)
        counter.record(0.25, count=4)
        time, count = counter.peak()
        assert time == pytest.approx(0.2)
        assert count == 4

    def test_peak_empty_raises(self):
        with pytest.raises(AnalysisError):
            WindowedCounter().peak()


class TestBusyTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            BusyTracker(slots=0)

    def test_single_slot_utilisation(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(1.0)
        cpu.release(3.0)
        assert cpu.utilization(0.0, 4.0) == pytest.approx(0.5)
        assert cpu.utilization(1.0, 3.0) == pytest.approx(1.0)
        assert cpu.utilization(3.0, 4.0) == pytest.approx(0.0)

    def test_multi_slot_utilisation(self):
        cpu = BusyTracker(slots=4)
        cpu.acquire(0.0, count=2)
        cpu.release(1.0, count=1)
        cpu.release(2.0, count=1)
        # 2 busy for 1s + 1 busy for 1s = 3 slot-seconds of 8 available.
        assert cpu.utilization(0.0, 2.0) == pytest.approx(3 / 8)

    def test_busy_seconds_running_total(self):
        cpu = BusyTracker(slots=2)
        cpu.acquire(0.0)
        assert cpu.busy_seconds(2.0) == pytest.approx(2.0)
        cpu.acquire(2.0)
        assert cpu.busy_seconds(3.0) == pytest.approx(4.0)

    def test_busy_seconds_before_last_edge(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.0)
        cpu.release(5.0)
        assert cpu.busy_seconds(2.0) == pytest.approx(2.0)
        assert cpu.busy_seconds(2.0) == pytest.approx(
            cpu.utilization(0.0, 2.0) * 2.0)
        assert cpu.busy_seconds(7.0) == pytest.approx(5.0)

    def test_one_checkpoint_per_accepted_call(self):
        cpu = BusyTracker(slots=2)
        cpu.acquire(0.0)
        cpu.acquire(1.0)
        cpu.release(2.0, count=2)
        cpu.acquire(2.0)
        assert len(cpu._checkpoints) == 1 + 4

    @pytest.mark.parametrize("refused", [
        lambda cpu: cpu.acquire(2.0),
        lambda cpu: cpu.release(2.0, count=2),
        lambda cpu: cpu.release(0.5),
    ], ids=["over_acquire", "over_release", "time_reversal"])
    def test_refused_call_leaves_tracker_unchanged(self, refused):
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.0)
        cpu.release(1.0)
        cpu.acquire(1.0)
        before = (cpu.busy_slots, cpu.busy_seconds(3.0), len(cpu._checkpoints))
        with pytest.raises(AnalysisError):
            refused(cpu)
        after = (cpu.busy_slots, cpu.busy_seconds(3.0), len(cpu._checkpoints))
        assert after == before == (1, 3.0, 4)

    @pytest.mark.parametrize("call", ["acquire", "release"])
    def test_nan_time_is_refused(self, call):
        cpu = BusyTracker(slots=2)
        cpu.acquire(0.0)
        before = (cpu.busy_slots, cpu.busy_seconds(3.0), len(cpu._checkpoints))
        with pytest.raises(AnalysisError):
            getattr(cpu, call)(float("nan"))
        after = (cpu.busy_slots, cpu.busy_seconds(3.0), len(cpu._checkpoints))
        assert after == before == (1, 3.0, 2)

    def test_over_acquire_raises(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.0)
        with pytest.raises(AnalysisError):
            cpu.acquire(0.5)

    def test_over_release_raises(self):
        cpu = BusyTracker(slots=1)
        with pytest.raises(AnalysisError):
            cpu.release(0.0)

    def test_time_reversal_raises(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(5.0)
        with pytest.raises(AnalysisError):
            cpu.release(4.0)

    def test_empty_interval_raises(self):
        cpu = BusyTracker(slots=1)
        with pytest.raises(AnalysisError):
            cpu.utilization(1.0, 1.0)

    def test_utilisation_of_past_interval_after_more_activity(self):
        """Historical windows stay queryable after later acquire/release."""
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.0)
        cpu.release(1.0)
        cpu.acquire(5.0)
        cpu.release(6.0)
        assert cpu.utilization(0.0, 2.0) == pytest.approx(0.5)
        assert cpu.utilization(0.5, 1.5) == pytest.approx(0.5)
        assert cpu.utilization(2.0, 4.0) == pytest.approx(0.0)
        assert cpu.utilization(4.5, 6.5) == pytest.approx(0.5)

    def test_utilization_series_matches_manual_windows(self):
        cpu = BusyTracker(slots=1)
        cpu.acquire(0.05)
        cpu.release(0.10)
        series = cpu.utilization_series(window=0.05, until=0.20)
        assert series.times == pytest.approx([0.0, 0.05, 0.10, 0.15])
        assert series.values == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_utilization_series_bad_window(self):
        cpu = BusyTracker(slots=1)
        with pytest.raises(AnalysisError):
            cpu.utilization_series(window=0, until=1)

    def test_busy_slots_property(self):
        cpu = BusyTracker(slots=3)
        cpu.acquire(0.0, count=2)
        assert cpu.busy_slots == 2
        cpu.release(1.0)
        assert cpu.busy_slots == 1
