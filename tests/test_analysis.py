"""Unit tests for the analysis package."""

import pytest

from repro.analysis import (
    DetectedMillibottleneck,
    Phases,
    QueuePeak,
    adaptive_threshold,
    align,
    detect,
    drops_of,
    evenness,
    find_peaks,
    histogram,
    match_ground_truth,
    pearson,
    saturated_windows,
    segment,
    sparkline,
    table,
    tier_series,
    timeline,
)
from repro.errors import AnalysisError
from repro.metrics import TimeSeries
from repro.osmodel.pdflush import MillibottleneckRecord


def series(points, name="s"):
    return TimeSeries(name, points)


class TestFindPeaks:
    def test_single_peak(self):
        data = series([(0, 1), (1, 2), (2, 50), (3, 60), (4, 2), (5, 1)])
        peaks = find_peaks(data, threshold=10, server="apache1")
        assert len(peaks) == 1
        peak = peaks[0]
        assert peak.server == "apache1"
        assert peak.started_at == 2
        assert peak.ended_at == 4
        assert peak.peak_value == 60
        assert peak.peak_at == 3
        assert peak.duration == 2

    def test_multiple_peaks(self):
        data = series([(0, 0), (1, 20), (2, 0), (3, 30), (4, 0)])
        assert len(find_peaks(data, threshold=10)) == 2

    def test_peak_running_to_series_end(self):
        data = series([(0, 0), (1, 20), (2, 25)])
        peaks = find_peaks(data, threshold=10)
        assert len(peaks) == 1
        assert peaks[0].ended_at == 2

    def test_no_peaks(self):
        assert find_peaks(series([(0, 1), (1, 2)]), threshold=10) == []

    def test_validation(self):
        with pytest.raises(AnalysisError):
            find_peaks(series([(0, 1)]), threshold=-1)

    def test_overlap(self):
        a = QueuePeak("x", 1.0, 2.0, 10, 1.5)
        b = QueuePeak("y", 1.9, 3.0, 10, 2.0)
        c = QueuePeak("z", 2.5, 3.0, 10, 2.7)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert a.overlaps(c, slack=0.6)


class TestAdaptiveThreshold:
    def test_uses_multiple_of_mean(self):
        data = series([(i, 2) for i in range(100)])
        assert adaptive_threshold(data, multiplier=4.0) == 8.0

    def test_floor_applies(self):
        data = series([(0, 0.1), (1, 0.1)])
        assert adaptive_threshold(data, floor=5.0) == 5.0

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            adaptive_threshold(TimeSeries())


class TestTierSeries:
    def test_sums_matching_servers(self):
        queues = {
            "tomcat1": series([(0, 1), (1, 2)]),
            "tomcat2": series([(0, 3), (1, 4)]),
            "apache1": series([(0, 100), (1, 100)]),
        }
        tier = tier_series(queues, "tomcat")
        assert tier.values == [4, 6]

    def test_missing_prefix_raises(self):
        with pytest.raises(AnalysisError):
            tier_series({"apache1": series([(0, 1)])}, "tomcat")


class TestSaturationDetection:
    def test_saturated_windows_merge(self):
        util = series([(0.00, 0.2), (0.05, 1.0), (0.10, 1.0),
                       (0.15, 0.3), (0.20, 0.96), (0.25, 0.1)])
        spans = saturated_windows(util, window=0.05)
        assert spans == [(0.05, pytest.approx(0.15)),
                         (0.20, pytest.approx(0.25))]

    def test_level_validation(self):
        with pytest.raises(AnalysisError):
            saturated_windows(series([(0, 1)]), window=0.05, level=0)

    def test_detect_full_chain(self):
        window = 0.05
        cpu = series([(0.00, 0.3), (0.05, 1.0), (0.10, 1.0), (0.15, 0.2)])
        iowait = series([(0.00, 0.0), (0.05, 1.0), (0.10, 1.0), (0.15, 0.0)])
        dirty = series([(0.00, 5e6), (0.05, 5e6), (0.10, 0.0), (0.15, 0.0)])
        found = detect("tomcat1", cpu, window, iowait=iowait, dirty=dirty)
        assert len(found) == 1
        detection = found[0]
        assert detection.io_induced
        assert detection.flush_induced
        assert detection.duration == pytest.approx(0.10)

    def test_detect_filters_sustained_saturation(self):
        cpu = series([(i * 0.05, 1.0) for i in range(100)])
        assert detect("x", cpu, 0.05, max_duration=1.0) == []

    def test_match_ground_truth(self):
        detected = [
            DetectedMillibottleneck("t1", 1.00, 1.15),
            DetectedMillibottleneck("t1", 7.00, 7.10),  # false positive
        ]
        records = [
            MillibottleneckRecord("t1", 1.02, 1.14, 1e6),
            MillibottleneckRecord("t1", 4.00, 4.10, 1e6),  # missed
        ]
        tp, fp, fn = match_ground_truth(detected, records)
        assert (tp, fp, fn) == (1, 1, 1)


class TestCorrelation:
    def test_pearson_perfect(self):
        a = series([(i * 0.05, i) for i in range(20)])
        b = series([(i * 0.05, 2 * i + 1) for i in range(20)])
        assert pearson(a, b) == pytest.approx(1.0)

    def test_pearson_constant_is_zero(self):
        a = series([(i * 0.05, 1.0) for i in range(20)])
        b = series([(i * 0.05, i) for i in range(20)])
        assert pearson(a, b) == 0.0

    def test_align_trims_to_overlap(self):
        a = series([(0.0, 1), (0.05, 2), (0.10, 3)])
        b = series([(0.05, 9), (0.10, 8), (0.15, 7)])
        x, y = align(a, b)
        assert list(x) == [2, 3]
        assert list(y) == [9, 8]

    def test_align_validation(self):
        with pytest.raises(AnalysisError):
            align(TimeSeries(), series([(0, 1)]))
        with pytest.raises(AnalysisError):
            align(series([(0, 1)]), series([(5, 1)]))

    def test_drops_of(self):
        dirty = series([(0, 10), (1, 12), (2, 4), (3, 4)])
        drops = drops_of(dirty)
        assert drops.values == [0.0, 8.0, 0.0]


class TestPhases:
    def make_record(self):
        return MillibottleneckRecord("tomcat1", 5.0, 5.2, 1e6)

    def test_segment_windows(self):
        phases = segment(self.make_record(), lead=0.3, recovery=0.2,
                         tail=0.1)
        assert phases.normal_before == (4.7, 5.0)
        assert phases.millibottleneck == (5.0, 5.2)
        assert phases.recovery == (5.2, pytest.approx(5.4))
        assert phases.normal_after == (pytest.approx(5.4),
                                       pytest.approx(5.5))
        assert set(phases.as_dict()) == {
            "normal_before", "millibottleneck", "recovery", "normal_after"}

    def test_segment_clamps_at_zero(self):
        record = MillibottleneckRecord("t", 0.1, 0.2, 1e6)
        phases = segment(record, lead=0.5)
        assert phases.normal_before[0] == 0.0

    def test_segment_validation(self):
        with pytest.raises(AnalysisError):
            segment(self.make_record(), lead=0)

    def test_evenness(self):
        assert evenness({"a": 10, "b": 10}) == 1.0
        assert evenness({"a": 30, "b": 10}) == pytest.approx(1.5)
        with pytest.raises(AnalysisError):
            evenness({})
        with pytest.raises(AnalysisError):
            evenness({"a": 0})


class TestAsciiPlot:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == " "
        assert line[-1] == "█"

    def test_sparkline_empty_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0]) == "  "

    def test_timeline_contains_label_and_max(self):
        data = series([(i * 0.1, i) for i in range(200)], name="queue")
        text = timeline(data, width=40, label="tomcat1")
        assert "tomcat1" in text
        assert "max=199" in text

    def test_timeline_empty(self):
        assert "(empty)" in timeline(TimeSeries("x"))

    def test_timeline_validation(self):
        with pytest.raises(AnalysisError):
            timeline(series([(0, 1)]), width=2)

    def test_histogram(self):
        text = histogram([(0.001, 0.01, 50), (0.01, 0.1, 0),
                          (1.0, 2.0, 5)])
        assert "50" in text
        assert text.count("\n") == 1  # zero bucket skipped

    def test_table_alignment_and_validation(self):
        text = table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        with pytest.raises(AnalysisError):
            table(["a"], [[1, 2]])
