"""Unit tests for ResponseTimeRecorder, stats, and distribution."""

import pytest

from repro.errors import AnalysisError
from repro.metrics import (
    NORMAL_THRESHOLD,
    VLRT_THRESHOLD,
    CompletedRequest,
    ResponseTimeDistribution,
    ResponseTimeRecorder,
    ResponseTimeStats,
    percentile,
)


def make_request(request_id, start, end, served_by=None, retransmissions=0):
    return CompletedRequest(
        request_id=request_id,
        interaction="ViewStory",
        started_at=start,
        finished_at=end,
        served_by=served_by,
        retransmissions=retransmissions,
    )


class TestCompletedRequest:
    def test_response_time(self):
        assert make_request(1, 1.0, 1.5).response_time == pytest.approx(0.5)

    def test_vlrt_classification(self):
        assert not make_request(1, 0.0, 1.0).is_vlrt  # exactly 1s is not VLRT
        assert make_request(2, 0.0, 1.001).is_vlrt


class TestResponseTimeStats:
    def test_table1_row_shape(self):
        samples = [0.005] * 90 + [1.5] * 5 + [0.2] * 5
        stats = ResponseTimeStats.from_samples(samples)
        row = stats.row()
        assert row["total_requests"] == 100
        assert row["vlrt_pct"] == pytest.approx(5.0)
        assert row["normal_pct"] == pytest.approx(90.0)
        assert row["avg_response_time_ms"] == pytest.approx(
            stats.mean * 1000, abs=0.01)

    def test_fractions(self):
        stats = ResponseTimeStats.from_samples([0.001, 2.0])
        assert stats.vlrt_fraction == pytest.approx(0.5)
        assert stats.normal_fraction == pytest.approx(0.5)

    def test_percentiles_ordering(self):
        stats = ResponseTimeStats.from_samples(
            [i / 1000 for i in range(1, 1001)])
        assert stats.median <= stats.p95 <= stats.p99 <= stats.p999 <= stats.max

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            ResponseTimeStats.from_samples([])

    def test_thresholds_match_paper(self):
        assert VLRT_THRESHOLD == 1.0
        assert NORMAL_THRESHOLD == 0.010


class TestPercentile:
    def test_against_known_values(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_validation(self):
        with pytest.raises(AnalysisError):
            percentile([], 50)
        with pytest.raises(AnalysisError):
            percentile([1], 101)


class TestResponseTimeRecorder:
    def test_record_and_stats(self):
        recorder = ResponseTimeRecorder("run")
        recorder.record(make_request(1, 0.0, 0.005))
        recorder.record(make_request(2, 0.0, 2.0))
        assert len(recorder) == 2
        stats = recorder.stats()
        assert stats.vlrt_count == 1
        assert stats.normal_count == 1

    def test_point_in_time_keeps_window_max(self):
        recorder = ResponseTimeRecorder()
        recorder.record(make_request(1, 0.0, 0.010))   # rt 10ms
        recorder.record(make_request(2, 0.0, 0.012))   # rt 12ms, same window
        recorder.record(make_request(3, 0.05, 0.060))  # rt 10ms, next window
        series = recorder.point_in_time(window=0.05)
        assert series.times == pytest.approx([0.0, 0.05])
        assert series.values == pytest.approx([0.012, 0.010])

    def test_point_in_time_sorts_by_completion(self):
        recorder = ResponseTimeRecorder()
        recorder.record(make_request(1, 0.0, 0.30))
        recorder.record(make_request(2, 0.0, 0.10))
        series = recorder.point_in_time(window=0.05)
        assert series.times == pytest.approx([0.10, 0.30])

    def test_vlrt_windows(self):
        recorder = ResponseTimeRecorder()
        recorder.record(make_request(1, 0.0, 1.51))  # VLRT ending at 1.51
        recorder.record(make_request(2, 0.4, 1.52))  # VLRT same window
        recorder.record(make_request(3, 1.0, 1.01))  # fast
        series = recorder.vlrt_windows(window=0.05)
        assert series.value_at(1.50) == 2
        assert sum(series.values) == 2

    def test_vlrt_requests_filter(self):
        recorder = ResponseTimeRecorder()
        recorder.record(make_request(1, 0.0, 3.0))
        recorder.record(make_request(2, 0.0, 0.1))
        assert [r.request_id for r in recorder.vlrt_requests()] == [1]

    def test_served_by_counts_with_time_filter(self):
        recorder = ResponseTimeRecorder()
        recorder.record(make_request(1, 0.0, 0.5, served_by="tomcat1"))
        recorder.record(make_request(2, 0.0, 1.5, served_by="tomcat1"))
        recorder.record(make_request(3, 0.0, 1.6, served_by="tomcat2"))
        recorder.record(make_request(4, 0.0, 1.7))  # dropped-by metadata
        counts = recorder.served_by_counts(1.0, 2.0)
        assert counts == {"tomcat1": 1, "tomcat2": 1}
        assert recorder.served_by_counts() == {"tomcat1": 2, "tomcat2": 1}

    def test_retransmitted_filter(self):
        recorder = ResponseTimeRecorder()
        recorder.record(make_request(1, 0.0, 1.2, retransmissions=1))
        recorder.record(make_request(2, 0.0, 0.2))
        assert len(recorder.retransmitted()) == 1


class TestResponseTimeDistribution:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            ResponseTimeDistribution(low=0)
        with pytest.raises(AnalysisError):
            ResponseTimeDistribution(low=1, high=0.5)
        with pytest.raises(AnalysisError):
            ResponseTimeDistribution(buckets_per_decade=0)

    def test_counts_and_total(self):
        dist = ResponseTimeDistribution()
        dist.add_all([0.005, 0.005, 1.0, 2.0])
        assert dist.total == 4

    def test_out_of_range_clamped(self):
        dist = ResponseTimeDistribution(low=0.01, high=1.0)
        dist.add(0.0001)
        dist.add(50.0)
        assert dist.total == 2
        assert dist.counts[0] == 1
        assert dist.counts[-1] == 1

    def test_mass_between(self):
        dist = ResponseTimeDistribution()
        dist.add_all([0.005] * 10 + [1.0] * 3)
        assert dist.mass_between(0.001, 0.01) == 10
        assert dist.mass_between(0.5, 2.0) == 3

    def test_vlrt_clusters(self):
        dist = ResponseTimeDistribution()
        dist.add_all([1.05] * 5 + [2.1] * 3 + [3.05] * 2 + [0.005] * 50)
        clusters = dist.vlrt_clusters()
        assert clusters[1.0] == 5
        assert clusters[2.0] == 3
        assert clusters[3.0] == 2

    def test_rows_cover_all_counts(self):
        dist = ResponseTimeDistribution()
        dist.add_all([0.01, 0.1, 1.0])
        rows = dist.rows()
        assert sum(count for _, _, count in rows) == 3
        for low, high, _ in rows:
            assert low < high
