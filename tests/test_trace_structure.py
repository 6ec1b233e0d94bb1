"""Trace-structure golden test + the zero-cost-when-off contract.

Companion to :mod:`tests.test_golden_trace`, one level up the stack:
where the golden *event* trace pins the kernel's dispatch schedule,
the golden *span* structure pins what the request tracer builds on top
of it — how many requests were traced, how many spans they produced,
and the exact parent/child shape of every tree (timing-independent
signatures, hashed).

The zero-cost tests pin the other half of the tracing contract: the
tracer never creates or schedules events, so the committed golden
event hashes are reproduced *byte-identically with tracing enabled* —
turning tracing on cannot perturb a simulation.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.sim.core import Environment
from repro.tracing import decompose

from tests.test_golden_trace import SCENARIO_EVENTS, SCENARIO_SHA256, trace_hash

#: Golden span-structure values for the seed-99 current_load fixture
#: (the same scenario the golden event trace pins).
STRUCTURE_TRACES = 751
STRUCTURE_COMPLETED = 751
STRUCTURE_SPANS = 7410
STRUCTURE_SHA256 = (
    "c29f6e273fee69c694c66ac256069d18c5414b0bb6eadd2154f0a49e2a29775d")

#: The shape every uncontended request takes through the full stack.
PLAIN_SIGNATURE = (
    "request(apache.queue_wait,apache.service(balancer.dispatch("
    "balancer.endpoint_wait,balancer.send(tomcat.queue_wait,"
    "tomcat.service(mysql.pool_wait,mysql.service)))))")


def scenario_config(trace_requests=True):
    profile = replace(ScaleProfile.smoke(), clients=120,
                      flush_threshold_bytes=32e3)
    return ExperimentConfig(
        bundle_key="current_load", profile=profile, duration=6.0,
        seed=99, trace_balancers=False,
        trace_requests=trace_requests)


@pytest.fixture(scope="module")
def traced_scenario():
    return ExperimentRunner(scenario_config()).run()


def structure_hash(traces):
    payload = "\n".join(
        "{} {}".format(trace.request_id, trace.signature())
        for trace in sorted(traces, key=lambda trace: trace.request_id))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenSpanStructure:
    def test_trace_and_span_counts_match_golden(self, traced_scenario):
        traces = traced_scenario.traces()
        assert len(traces) == STRUCTURE_TRACES
        completed = [trace for trace in traces if trace.completed]
        assert len(completed) == STRUCTURE_COMPLETED
        assert sum(trace.span_count()
                   for trace in traces) == STRUCTURE_SPANS

    def test_structure_signature_matches_golden(self, traced_scenario):
        assert structure_hash(
            traced_scenario.traces()) == STRUCTURE_SHA256

    def test_most_requests_take_the_plain_path(self, traced_scenario):
        signatures = [trace.signature()
                      for trace in traced_scenario.traces()]
        plain = sum(1 for signature in signatures
                    if signature == PLAIN_SIGNATURE)
        assert plain > 0.5 * len(signatures)

    def test_bucket_sums_equal_durations(self, traced_scenario):
        """The decomposer's conservation law, across the whole run."""
        for trace in traced_scenario.traces():
            if not trace.completed:
                continue
            path = decompose(trace)
            assert sum(path.buckets.values()) == pytest.approx(
                trace.duration, abs=1e-9), trace.request_id

    def test_spans_nest_inside_their_parents(self, traced_scenario):
        """Every span opens no earlier than its parent (durations are
        clipped at decomposition, but open times must nest exactly)."""
        for trace in traced_scenario.traces():
            for span in trace.root.walk():
                if span.parent is not None:
                    assert span.start >= span.parent.start

    def test_every_trace_is_finalized(self, traced_scenario):
        for trace in traced_scenario.traces():
            for span in trace.root.walk():
                assert span.end is not None


class TestZeroCostWhenOff:
    def test_environment_tracer_defaults_to_none(self):
        assert Environment().tracer is None

    def test_event_schedule_identical_with_tracing_on(self):
        """The committed golden *event* hash is reproduced even with
        request tracing enabled: the tracer is pure observation."""
        env = Environment()
        records = []
        env.trace = lambda when, event: records.append(
            (when, type(event).__name__))
        ExperimentRunner(scenario_config(trace_requests=True)).run(env=env)
        assert len(records) == SCENARIO_EVENTS
        assert trace_hash(records) == SCENARIO_SHA256

    def test_results_identical_with_tracing_on(self):
        traced = ExperimentRunner(scenario_config(True)).run()
        untraced = ExperimentRunner(scenario_config(False)).run()
        assert traced.stats().count == untraced.stats().count
        assert traced.stats().mean == untraced.stats().mean
        assert traced.metrics.drops == untraced.metrics.drops
