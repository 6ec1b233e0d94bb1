"""System-level determinism: identical seeds give identical traces."""

from dataclasses import replace

import pytest

from repro.cluster import ExperimentRunner
from repro.cluster.scenarios import policy_run
from repro.sim import Environment


def run(seed):
    return ExperimentRunner(
        policy_run("original_total_request", duration=5.0,
                   seed=seed)).run()


class TestTraceDeterminism:
    def test_dispatch_traces_are_bit_identical(self):
        first, second = run(3), run(3)
        for lb_a, lb_b in zip(first.system.balancers,
                              second.system.balancers):
            assert lb_a.dispatch_trace.records == lb_b.dispatch_trace.records
            assert lb_a.pick_trace.records == lb_b.pick_trace.records

    def test_lb_value_traces_are_bit_identical(self):
        first, second = run(4), run(4)
        for lb_a, lb_b in zip(first.system.balancers,
                              second.system.balancers):
            for member_a, member_b in zip(lb_a.members, lb_b.members):
                assert member_a.lb_trace.times == member_b.lb_trace.times
                assert member_a.lb_trace.values == member_b.lb_trace.values

    def test_millibottleneck_schedule_is_identical(self):
        first, second = run(5), run(5)
        records_a = [(r.host, r.started_at, r.ended_at, r.bytes_flushed)
                     for r in first.system.millibottleneck_records()]
        records_b = [(r.host, r.started_at, r.ended_at, r.bytes_flushed)
                     for r in second.system.millibottleneck_records()]
        assert records_a == records_b

    def test_request_log_is_identical(self):
        first, second = run(6), run(6)
        log_a = [(r.request_id, r.started_at, r.finished_at, r.served_by)
                 for r in first.recorder.requests]
        log_b = [(r.request_id, r.started_at, r.finished_at, r.served_by)
                 for r in second.recorder.requests]
        assert log_a == log_b


class TestDistributionWindows:
    def test_windows_cover_all_dispatches(self):
        result = run(7)
        balancer = result.system.balancers[0]
        windows = balancer.distribution_windows(until=5.0)
        assert set(windows) == {"tomcat1", "tomcat2", "tomcat3", "tomcat4"}
        total = sum(sum(series.values) for series in windows.values())
        assert total == len(balancer.dispatch_trace)

    def test_windows_reflect_stall_dip_and_recovery(self):
        """The stalled member's per-window dispatch series dips to
        ~zero mid-stall (workers stuck, nothing dispatched) and
        rebounds at recovery to at least the normal level."""
        result = run(8)
        records = [r for r in result.system.millibottleneck_records()
                   if r.started_at > 2.0]
        record = records[0]
        balancer = result.system.balancers[0]
        windows = balancer.distribution_windows(window=0.05, until=5.0)
        stalled = windows[record.host]
        normal = stalled.slice(1.0, record.started_at - 0.5).mean()
        mid_stall = stalled.slice(record.started_at + 0.05,
                                  record.ended_at - 0.02)
        recovery = stalled.slice(record.ended_at,
                                 record.ended_at + 0.3)
        assert mid_stall.min() <= normal / 2
        assert recovery.max() >= normal


class TestTraceHookIsInert:
    """Installing ``Environment.trace`` must not change the run: the
    golden hashes are computed with the hook set, every other run
    leaves it unset."""

    @pytest.mark.parametrize("trace_requests", [False, True])
    def test_traced_and_untraced_runs_agree(self, trace_requests):
        config = policy_run("original_total_request", duration=2.0,
                            seed=5)
        config = replace(config, trace_requests=trace_requests)
        plain_env, traced_env = Environment(), Environment()
        traced_env.trace = lambda when, event: None
        plain = ExperimentRunner(config).run(env=plain_env)
        traced = ExperimentRunner(config).run(env=traced_env)
        assert traced.metrics == plain.metrics
        assert traced_env._eid == plain_env._eid
