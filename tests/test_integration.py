"""End-to-end integration tests: the paper's phenomena, asserted.

Each fixture runs one full experiment (module-scoped, so the suite
runs each configuration once); tests then assert the qualitative
claims of the corresponding paper sections.
"""

import pytest

from repro.analysis import (
    adaptive_threshold,
    detect,
    evenness,
    find_peaks,
    funnel_fraction,
    match_ground_truth,
    pearson,
    drops_of,
    segment,
    tier_series,
)
from repro.cluster import ExperimentRunner
from repro.cluster.scenarios import (
    baseline_no_millibottleneck,
    policy_run,
    single_node_millibottleneck,
)
from repro.errors import AnalysisError
from repro.metrics import PAPER_WINDOW, ResponseTimeDistribution

# Long enough for several stall cycles AND for dropped packets to
# retransmit through the 1 s RTO (possibly more than once — the flush
# stagger resonates with the timer, which is what produces the 2 s/3 s
# clusters) and complete inside the horizon.
DURATION = 12.0
SEED = 20170601  # ICDCS 2017


@pytest.fixture(scope="module")
def baseline():
    return ExperimentRunner(
        baseline_no_millibottleneck(duration=DURATION, seed=SEED)).run()


@pytest.fixture(scope="module")
def original():
    return ExperimentRunner(
        policy_run("original_total_request", duration=DURATION,
                   seed=SEED)).run()


@pytest.fixture(scope="module")
def modified():
    return ExperimentRunner(
        policy_run("total_request_modified", duration=DURATION,
                   seed=SEED)).run()


@pytest.fixture(scope="module")
def current_load():
    return ExperimentRunner(
        policy_run("current_load", duration=DURATION, seed=SEED)).run()


@pytest.fixture(scope="module")
def single_node():
    return ExperimentRunner(
        single_node_millibottleneck(duration=DURATION, seed=SEED)).run()


class TestFig1Baseline:
    """§II-B: the load balancer works without millibottlenecks."""

    def test_no_millibottlenecks_occurred(self, baseline):
        assert baseline.system.millibottleneck_records() == []

    def test_vlrt_negligible(self, baseline):
        stats = baseline.stats()
        assert stats.vlrt_count == 0
        assert stats.normal_fraction > 0.95

    def test_average_rt_single_digit_ms(self, baseline):
        assert baseline.stats().mean_ms < 10.0

    def test_point_in_time_rt_is_flat(self, baseline):
        rt = baseline.point_in_time_rt()
        assert rt.max() < 0.1  # no spikes anywhere

    def test_workload_evenly_distributed(self, baseline):
        counts = baseline.recorder.served_by_counts(1.0, DURATION)
        assert evenness(counts) < 1.05

    def test_no_packet_drops(self, baseline):
        assert baseline.metrics.drops == 0


class TestFig3to5OriginalPolicies:
    """§III-C: instability under the stock policies."""

    def test_vlrt_requests_appear(self, original):
        stats = original.stats()
        assert stats.vlrt_fraction > 0.01
        assert stats.mean_ms > 10 * 3.5  # far worse than baseline

    def test_rt_distribution_is_bimodal(self, original):
        """Fig. 4: most requests <10 ms, VLRT cluster near 1 s."""
        dist = ResponseTimeDistribution()
        dist.add_all(original.recorder.response_times)
        clusters = dist.vlrt_clusters()
        assert clusters[1.0] > 0
        assert dist.mass_between(0.001, 0.010) > 0.5 * dist.total

    def test_vlrt_caused_by_retransmissions(self, original):
        vlrt = original.recorder.vlrt_requests()
        retransmitted = [r for r in vlrt if r.retransmissions > 0]
        assert len(retransmitted) > 0.9 * len(vlrt)

    def test_cpu_moderate_despite_vlrt(self, original):
        """Fig. 5: every server averages below ~50 % CPU."""
        for name, cpu in original.average_cpu().items():
            assert cpu < 0.55, name

    def test_drops_at_web_tier(self, original):
        assert original.metrics.drops > 0


class TestFig6and10Instability:
    """§III-C / §V-A: the funnel onto the stalled Tomcat."""

    def stall_of(self, result):
        records = [r for r in result.system.millibottleneck_records()
                   if r.started_at > 2.0]  # past ramp-up
        assert records
        return records[0]

    def test_picks_funnel_into_stalled_member(self, original):
        record = self.stall_of(original)
        window = (record.started_at + 0.05, record.ended_at)
        fractions = [funnel_fraction(balancer, record.host, window)
                     for balancer in original.system.balancers]
        # Late in the stall, almost every pick goes to the stalled
        # server on every Apache.
        assert all(fraction > 0.6 for fraction in fractions)

    def test_lb_value_lowest_during_stall(self, original):
        record = self.stall_of(original)
        probe = (record.started_at + record.ended_at) / 2
        for balancer in original.system.balancers:
            values = {member.name: member.lb_trace.value_at(probe)
                      for member in balancer.members}
            stalled_value = values.pop(record.host)
            assert stalled_value <= min(values.values())

    def test_lb_value_spikes_in_recovery(self, original):
        """Fig. 10(b)'s red peak: the stalled member's lb_value rises
        fastest right after recovery."""
        record = self.stall_of(original)
        phases = segment(record, recovery=0.3)
        start, end = phases.recovery
        for balancer in original.system.balancers:
            deltas = {}
            for member in balancer.members:
                deltas[member.name] = (member.lb_trace.value_at(end)
                                       - member.lb_trace.value_at(start))
            assert max(deltas, key=deltas.get) == record.host

    def test_apache_tier_queue_spikes_during_stall(self, original):
        record = self.stall_of(original)
        apache_tier = tier_series(original.queue_series, "apache")
        window = apache_tier.slice(record.started_at,
                                   record.ended_at + 0.3)
        normal = apache_tier.slice(1.5, record.started_at - 0.5)
        assert window.max() > 4 * max(normal.mean(), 1.0)


class TestFig8and9MechanismRemedy:
    """§IV-C: modified get_endpoint avoids the stalled candidate."""

    def test_no_drops_and_no_vlrt(self, modified):
        assert modified.metrics.drops == 0
        assert modified.stats().vlrt_fraction < 0.005

    def test_dispatches_avoid_stalled_member(self, modified):
        records = [r for r in modified.system.millibottleneck_records()
                   if r.started_at > 2.0]
        record = records[0]
        # After the balancer notices (first pool exhaustion), nothing
        # more is dispatched to the stalled member.
        window = (record.started_at + 0.05, record.ended_at)
        for balancer in modified.system.balancers:
            counts = balancer.distribution_between(*window)
            healthy = sum(count for name, count in counts.items()
                          if name != record.host)
            # A stray dispatch can slip through when an in-flight
            # request completes mid-stall (its reply only needed the
            # database) and briefly frees an endpoint; the funnel is
            # still gone.
            assert counts[record.host] <= max(2, 0.1 * healthy)
            assert healthy > 5

    def test_apache_queues_stay_small(self, modified, original):
        """Fig. 8: the remedy cuts the queued requests dramatically."""
        original_peak = tier_series(original.queue_series, "apache").max()
        modified_peak = tier_series(modified.queue_series, "apache").max()
        assert modified_peak < original_peak / 3


class TestFig12and13PolicyRemedy:
    """§V-B: current_load avoids the scheduling instability."""

    def test_no_drops_and_no_vlrt(self, current_load):
        assert current_load.metrics.drops == 0
        assert current_load.stats().vlrt_fraction < 0.005

    def test_avg_rt_improvement_factor(self, current_load, original):
        """§VI: current_load improves average RT by ~12x (ours is
        allowed to be anywhere above 5x)."""
        factor = original.stats().mean / current_load.stats().mean
        assert factor > 5

    def test_tomcat_tier_queues_small(self, current_load):
        """Fig. 12/13(a): no huge spike in the Tomcat tier."""
        for tomcat in current_load.system.tiers["tomcat"]:
            assert current_load.queue_series[tomcat.name].max() < 40

    def test_requests_rerouted_to_healthy(self, current_load):
        records = [r for r in current_load.system.millibottleneck_records()
                   if r.started_at > 2.0]
        record = records[0]
        window = (record.started_at + 0.05, record.ended_at)
        for balancer in current_load.system.balancers:
            counts = balancer.distribution_between(*window)
            total = sum(counts.values())
            assert total > 0
            assert counts[record.host] / total < 0.2

    def test_combined_equivalent_to_single_remedy(self, current_load):
        """§VI: overcoming limitations at both levels adds nothing."""
        combined = ExperimentRunner(
            policy_run("current_load_modified", duration=DURATION,
                       seed=SEED)).run()
        assert combined.stats().mean == pytest.approx(
            current_load.stats().mean, rel=0.5)


class TestFig2Anatomy:
    """§III-B: the causal chain, without any load balancer."""

    def test_millibottlenecks_occur_on_both_hosts(self, single_node):
        hosts = {r.host for r in single_node.system.millibottleneck_records()}
        assert "tomcat1" in hosts
        assert "apache1" in hosts

    def test_stall_durations_are_milliseconds(self, single_node):
        for record in single_node.system.millibottleneck_records():
            assert 0.01 <= record.duration <= 0.5

    def test_vlrt_appear_without_balancer(self, single_node):
        assert single_node.stats().vlrt_count > 0

    def test_detector_matches_ground_truth(self, single_node):
        result = single_node
        for server_name in ("tomcat1", "apache1"):
            cpu = result.cpu_utilization(server_name)
            iowait = result.iowait(server_name)
            detections = detect(server_name, cpu, PAPER_WINDOW,
                                iowait=iowait)
            records = [r for r in result.system.millibottleneck_records()
                       if r.host == server_name]
            tp, fp, fn = match_ground_truth(detections, records)
            assert fn == 0, server_name  # every stall detected
            assert fp <= 1, server_name

    def test_detected_stalls_are_io_induced(self, single_node):
        cpu = single_node.cpu_utilization("tomcat1")
        iowait = single_node.iowait("tomcat1")
        for detection in detect("tomcat1", cpu, PAPER_WINDOW,
                                iowait=iowait):
            assert detection.io_induced

    def test_zero_window_raises(self, single_node):
        """A zero window is an error, never the 50 ms default."""
        with pytest.raises(AnalysisError):
            single_node.cpu_utilization("tomcat1", window=0.0)
        with pytest.raises(AnalysisError):
            single_node.iowait("tomcat1", window=0.0)

    def test_dirty_drops_correlate_with_iowait(self, single_node):
        """Fig. 2(d)/(e): flush activity lines up with iowait."""
        dirty = single_node.dirty_series["tomcat1"]
        iowait = single_node.iowait("tomcat1")
        assert pearson(drops_of(dirty), iowait) > 0.5

    def test_lagged_queue_vlrt_link_recovers_rto(self, single_node):
        """The queue->VLRT link is delayed by the retransmission
        timer; scanning lags recovers ~1 s from the data alone."""
        from repro.analysis import best_lag
        lag, r = best_lag(single_node.queue_series["apache1"],
                          single_node.vlrt_windows(),
                          max_lag=2.0, step=0.05)
        assert 0.85 <= lag <= 1.3
        assert r > 0.4

    def test_queue_peaks_coincide_with_stalls(self, single_node):
        apache_queue = single_node.queue_series["apache1"]
        threshold = adaptive_threshold(apache_queue)
        peaks = find_peaks(apache_queue, threshold, "apache1")
        assert peaks
        records = single_node.system.millibottleneck_records()
        for peak in peaks:
            assert any(record.started_at - 0.2 < peak.peak_at
                       < record.ended_at + 0.6
                       for record in records)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        first = ExperimentRunner(
            policy_run("current_load", duration=3.0, seed=5)).run()
        second = ExperimentRunner(
            policy_run("current_load", duration=3.0, seed=5)).run()
        assert first.stats() == second.stats()
        assert first.metrics.drops == second.metrics.drops

    def test_different_seed_different_trace(self):
        first = ExperimentRunner(
            policy_run("current_load", duration=3.0, seed=5)).run()
        second = ExperimentRunner(
            policy_run("current_load", duration=3.0, seed=6)).run()
        assert first.stats().count != second.stats().count
