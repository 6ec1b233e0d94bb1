"""Request-tracing overhead: zero when off, bounded when on.

Two measurements guard the tracing contract:

* **disabled** — the kernel dispatch loop never reads
  ``Environment.tracer``, so with tracing off the kernel must still
  clear the same throughput floor as ``test_kernel_throughput`` (the
  committed seed baseline).  A >=2% kernel regression would show up
  here as a ratio drop long before it hit the floor.
* **enabled** — tracing is opt-in observation; the full-stack scenario
  pays for span construction, but the event schedule is identical
  (pinned by the golden-hash tests) and results match exactly.  The
  measured overhead is recorded next to the committed datapoint in
  ``BENCH_kernel.json`` (key ``tracing``).
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

# pytest inserts this directory on sys.path (no package __init__), so
# the sibling benchmark module imports by its flat name.
from test_kernel_throughput import (
    MIN_RATIO,
    _baseline,
    _events_per_sec,
    timeout_chain,
)
from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner

#: Upper bound on traced-vs-untraced wall time for the full scenario.
#: The round-2 tracer measures ~1.26x (see BENCH_kernel.json round2);
#: 1.6x leaves noise room on shared runners while still failing if the
#: inlined span construction path regresses toward the seed's 1.48x
#: plus drift.
MAX_TRACED_RATIO = 1.6


def scenario_config(trace_requests: bool) -> ExperimentConfig:
    profile = replace(ScaleProfile.smoke(), clients=120,
                      flush_threshold_bytes=32e3)
    return ExperimentConfig(
        bundle_key="current_load", profile=profile, duration=6.0,
        seed=99, trace_balancers=False,
        trace_requests=trace_requests)


def _best_wall_time_pair(rounds: int = 4):
    """Interleaved untraced/traced runs, best wall time of each.

    Alternating the two variants inside one loop (instead of timing
    all untraced runs and then all traced runs) cancels host-speed
    drift between the two measurements — the ratio of bests is what
    the overhead bound asserts, and drift shows up identically in
    both numerators.
    """
    best_untraced = best_traced = float("inf")
    untraced = traced = None
    for _ in range(rounds):
        start = time.perf_counter()
        untraced = ExperimentRunner(scenario_config(False)).run()
        best_untraced = min(best_untraced, time.perf_counter() - start)
        start = time.perf_counter()
        traced = ExperimentRunner(scenario_config(True)).run()
        best_traced = min(best_traced, time.perf_counter() - start)
    return best_untraced, untraced, best_traced, traced


def test_kernel_throughput_unaffected_with_tracing_off(benchmark):
    """Fresh environments default to ``tracer=None``; the dispatch loop
    must still clear the committed seed-kernel throughput floor."""
    box = {}

    def work():
        box["eps"], box["events"] = _events_per_sec(timeout_chain)

    benchmark.pedantic(work, rounds=1, iterations=1)
    baseline = _baseline()["events_per_sec"]["timeout_chain"]
    ratio = box["eps"] / baseline
    benchmark.extra_info.update({
        "events_per_sec": round(box["eps"]),
        "speedup_vs_seed_baseline": round(ratio, 3),
    })
    print("tracing off: {:,.0f} events/s ({:.2f}x seed baseline)".format(
        box["eps"], ratio))
    assert ratio >= MIN_RATIO


def test_traced_scenario_overhead_is_bounded(benchmark):
    """Full-stack scenario, tracing on vs off: identical results, and
    the span-construction cost stays within the documented bound."""
    box = {}

    def work():
        (box["untraced_s"], box["untraced"],
         box["traced_s"], box["traced"]) = _best_wall_time_pair()

    benchmark.pedantic(work, rounds=1, iterations=1)
    untraced, traced = box["untraced"], box["traced"]
    ratio = box["traced_s"] / box["untraced_s"]
    benchmark.extra_info.update({
        "untraced_wall_s": round(box["untraced_s"], 4),
        "traced_wall_s": round(box["traced_s"], 4),
        "traced_over_untraced": round(ratio, 3),
        "traces": len(traced.traces()),
    })
    print("scenario: untraced {:.3f}s, traced {:.3f}s ({:.2f}x, "
          "{} traces)".format(box["untraced_s"], box["traced_s"], ratio,
                              len(traced.traces())))
    # Pure observation: identical results either way.
    assert traced.stats().count == untraced.stats().count
    assert traced.stats().mean == pytest.approx(untraced.stats().mean)
    assert traced.metrics.drops == untraced.metrics.drops
    assert ratio < MAX_TRACED_RATIO
