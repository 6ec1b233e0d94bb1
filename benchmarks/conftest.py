"""Shared helpers for the figure/table benchmark harness.

Every benchmark regenerates one paper artifact: it runs the scenario
through ``benchmark.pedantic`` (one round — a full experiment is the
unit of work), prints the same rows/series the paper reports (visible
with ``pytest benchmarks/ --benchmark-only -s``), stores the headline
numbers in ``benchmark.extra_info``, and asserts the paper's *shape* —
who wins, by roughly what factor, where the spikes are.
"""

from __future__ import annotations

import pytest

from repro.cluster.runner import ExperimentResult, ExperimentRunner

#: Seed used by every benchmark (results are deterministic given it).
BENCH_SEED = 20170605
#: Simulated seconds for figure-level runs; long enough for several
#: stall cycles plus the retransmission tail.
FIGURE_DURATION = 12.0


def run_experiment(benchmark, config, label: str) -> ExperimentResult:
    """Execute one experiment inside the benchmark timer."""
    result_box: dict[str, ExperimentResult] = {}

    def work():
        result_box["result"] = ExperimentRunner(config).run()

    benchmark.pedantic(work, rounds=1, iterations=1)
    result = result_box["result"]
    stats = result.stats()
    benchmark.extra_info.update({
        "label": label,
        "requests": stats.count,
        "avg_rt_ms": round(stats.mean_ms, 2),
        "vlrt_pct": round(100 * stats.vlrt_fraction, 3),
        "normal_pct": round(100 * stats.normal_fraction, 2),
        "drops": result.metrics.drops,
    })
    return result


def first_clean_stall(result: ExperimentResult, after: float = 2.0):
    """First ground-truth stall past the ramp-up."""
    records = [record for record in result.system.millibottleneck_records()
               if record.started_at > after]
    assert records, "scenario produced no millibottlenecks"
    return records[0]


def strongest_funnel_stall(result: ExperimentResult, after: float = 2.0):
    """The stall whose pick-funnel is sharpest, averaged over Apaches.

    The paper zooms into an illustrative window ("we zoom into a period
    in which only Tomcat1 has a millibottleneck"); this helper picks
    the same kind of window programmatically.  For the cumulative
    policies the funnel onset depends on where the stalled member's
    lb_value sat when the stall began, so early stalls can funnel late
    — the sharpest stall is the representative one.
    """
    from repro.analysis.phases import funnel_fraction

    records = [record for record in result.system.millibottleneck_records()
               if record.started_at > after
               and record.ended_at < result.duration - 1.0]
    assert records, "scenario produced no millibottlenecks"

    from repro.analysis.phases import lock_on_fraction

    def score(record):
        window = (record.started_at, record.ended_at)
        fractions = [
            funnel_fraction(balancer, record.host, window)
            + lock_on_fraction(balancer, record.host, window)
            for balancer in result.system.balancers
        ]
        return sum(fractions) / len(fractions)

    return max(records, key=score)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
