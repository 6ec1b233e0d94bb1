"""Report builders: Table I, paper-vs-measured comparisons, grid tables.

The Table-I builders take :class:`~repro.cluster.runner.RunMetrics`
(as :func:`~repro.cluster.runner.compare_policies` returns them); the
grid tables take the ``(labels, RunMetrics)`` rows of
:meth:`~repro.cluster.runner.Grid.run`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.analysis.asciiplot import table
from repro.cluster.runner import RunMetrics
from repro.errors import AnalysisError

#: One ``(labels, metrics)`` row of a :class:`~repro.cluster.runner.Grid`.
Row = tuple[dict[str, str], RunMetrics]

#: The paper's Table I, for side-by-side comparison.  Values are
#: (avg response time ms, %VLRT, %normal).
PAPER_TABLE1: dict[str, tuple[float, float, float]] = {
    "original_total_request": (41.00, 5.33, 88.85),
    "original_total_traffic": (55.50, 6.89, 85.55),
    "current_load": (3.62, 0.21, 96.70),
    "total_request_modified": (4.87, 0.55, 95.82),
    "total_traffic_modified": (5.87, 0.76, 93.93),
    "current_load_modified": (3.60, 0.20, 96.67),
}


def table1(results: Sequence[RunMetrics]) -> str:
    """Render measured results in the paper's Table I format."""
    if not results:
        raise AnalysisError("no results to report")
    headers = ["Policy", "# Total Requests", "Avg RT (ms)",
               "% VLRT (>1000 ms)", "% Normal (<10 ms)"]
    rows = []
    for result in results:
        row = result.table1_row()
        rows.append([
            row["policy"],
            row["total_requests"],
            "{:.2f}".format(row["avg_response_time_ms"]),
            "{:.2f}%".format(row["vlrt_pct"]),
            "{:.2f}%".format(row["normal_pct"]),
        ])
    return table(headers, rows)


def table1_with_paper(results: Sequence[RunMetrics]) -> str:
    """Measured vs paper values, one row per bundle."""
    headers = ["Policy", "Avg RT ms (ours)", "Avg RT ms (paper)",
               "%VLRT (ours)", "%VLRT (paper)"]
    rows = []
    for result in results:
        key = result.config.bundle_key
        stats = result.stats()
        paper = PAPER_TABLE1.get(key)
        rows.append([
            key,
            "{:.2f}".format(stats.mean_ms),
            "{:.2f}".format(paper[0]) if paper else "-",
            "{:.2f}%".format(100 * stats.vlrt_fraction),
            "{:.2f}%".format(paper[1]) if paper else "-",
        ])
    return table(headers, rows)


def rematch_table(rows: Sequence[Row]) -> str:
    """Render the modern-policy rematch grid (``table1 --policies``).

    One row per (bundle, fault) cell; ``probes/s`` is the probe-message
    overhead a probing policy pays for its ranking, and ``sticky``
    counts affinity violations — both zero for classic bundles, so the
    columns double as a no-hidden-traffic check.
    """
    if not rows:
        raise AnalysisError("no rematch cells to report")
    headers = ["Bundle", "Fault", "%VLRT", "Avail%", "Goodput/s",
               "Probes/s", "Sticky", "Reqs", "Drops", "503s"]
    body = []
    for labels, run in rows:
        body.append([
            labels["bundle"],
            labels["fault"],
            "{:.3f}".format(run.vlrt_pct()),
            "{:.2f}".format(100.0 * run.availability()),
            "{:.1f}".format(run.goodput()),
            "{:.1f}".format(run.probes_per_s()),
            run.sticky_violations,
            run.response_stats.count,
            run.drops,
            run.errors_503,
        ])
    return table(headers, body)


#: A fixed-width column: header, alignment and width (``"<15"``), value
#: format (``".2f"``), and the value of a ``(labels, metrics)`` row.
Column = tuple[str, str, str, Callable[[dict[str, str], RunMetrics], Any]]


def fixed_width_table(columns: Sequence[Column], rows: Sequence[Row],
                      detail: Optional[Callable[[RunMetrics],
                                                Optional[str]]] = None
                      ) -> str:
    """Header, dashed rule, one line per row (plus an optional
    ``detail`` line under it)."""
    header = " ".join(format(name, width + "s")
                      for name, width, _, _ in columns)
    lines = [header, "-" * len(header)]
    for labels, run in rows:
        lines.append(" ".join(format(value(labels, run), width + spec)
                              for _, width, spec, value in columns))
        extra = detail(run) if detail is not None else None
        if extra is not None:
            lines.append(extra)
    return "\n".join(lines)


def _ttr(run: RunMetrics) -> str:
    if run.ttr is None:
        return "-"
    if run.ttr == float("inf"):
        return "never"
    return "{:.2f}".format(run.ttr)


CHAOS_COLUMNS: tuple[Column, ...] = (
    ("fault", "<15", "s", lambda labels, run: labels["fault"]),
    ("remedy", "<18", "s", lambda labels, run: labels["remedy"]),
    ("bundle", "<24", "s", lambda labels, run: labels["bundle"]),
    ("avail%", ">6", ".2f", lambda labels, run: 100.0 * run.availability()),
    ("vlrt%", ">7", ".3f", lambda labels, run: run.vlrt_pct()),
    ("amp", ">5", ".2f", lambda labels, run: run.retry_amplification()),
    ("goodput", ">8", ".1f", lambda labels, run: run.goodput()),
    ("reqs", ">7", "d", lambda labels, run: run.response_stats.count),
    ("drops", ">6", "d", lambda labels, run: run.drops),
    ("503s", ">5", "d", lambda labels, run: run.errors_503),
    ("shed%", ">6", ".2f", lambda labels, run: run.shed_pct()),
    ("ttr", ">6", "s", lambda labels, run: _ttr(run)),
)


def chaos_table(rows: Sequence[Row]) -> str:
    """The fault x remedy x bundle chaos grid (``repro-lb chaos``)."""
    return fixed_width_table(CHAOS_COLUMNS, rows)


GEO_COLUMNS: tuple[Column, ...] = (
    ("topology", "<9", "s", lambda labels, run: labels["topology"]),
    ("fault", "<16", "s", lambda labels, run: labels["fault"]),
    ("reqs", ">6", "d", lambda labels, run: run.response_stats.count),
    ("vlrt%", ">7", ".3f", lambda labels, run: run.vlrt_pct()),
    ("avail%", ">7", ".2f", lambda labels, run: 100.0 * run.availability()),
    ("drops", ">6", "d", lambda labels, run: run.drops),
    ("503s", ">5", "d", lambda labels, run: run.errors_503),
    ("spill", ">6", "d", lambda labels, run: run.spillovers),
    ("wan_rtx", ">8", "d", lambda labels, run: run.wan_retransmits),
    ("hit%", ">8", ".1f", lambda labels, run: run.cache_hit_pct()),
)

#: The critical-path buckets a traced geo cell reports, as shares of
#: VLRT time.
GEO_BUCKETS = ("wan.transit", "retransmission", "cache.miss_penalty",
               "queue_wait.mysql")


def _geo_buckets(run: RunMetrics) -> Optional[str]:
    if run.vlrt_buckets is None:
        return None
    return "          vlrt time: " + "  ".join(
        "{}={:.1f}%".format(bucket,
                            100.0 * run.vlrt_buckets.get(bucket, 0.0))
        for bucket in GEO_BUCKETS)


def geo_table(rows: Sequence[Row]) -> str:
    """The {hierarchy, flat} x geo-fault grid (``repro-lb geo``); traced
    cells get a line of VLRT-time shares per bucket."""
    return fixed_width_table(GEO_COLUMNS, rows, detail=_geo_buckets)


def improvement_factors(results: Sequence[RunMetrics],
                        baseline_key: str = "original_total_request"
                        ) -> dict[str, float]:
    """Average-RT improvement of each run relative to the baseline run.

    The paper's headline: current_load improves on total_request by
    ~12x.  Factors > 1 mean faster than the baseline.
    """
    by_key = {result.config.bundle_key: result for result in results}
    if baseline_key not in by_key:
        raise AnalysisError("baseline {} not among results".format(
            baseline_key))
    baseline = by_key[baseline_key].stats().mean
    return {
        key: baseline / result.stats().mean
        for key, result in by_key.items()
    }


def shape_check(results: Sequence[RunMetrics]) -> dict[str, bool]:
    """The qualitative claims of §VI, each as a boolean.

    * remedies beat originals on average RT and on %VLRT;
    * total_traffic is no better than total_request (it was worse in
      the paper);
    * combining both remedies adds no further improvement (within 2x
      of the best single remedy).
    """
    by_key = {result.config.bundle_key: result.stats() for result in results}
    required = {"original_total_request", "original_total_traffic",
                "current_load", "total_request_modified",
                "current_load_modified"}
    missing = required - set(by_key)
    if missing:
        raise AnalysisError("missing runs: " + ", ".join(sorted(missing)))
    originals = [by_key["original_total_request"],
                 by_key["original_total_traffic"]]
    remedies = [by_key["current_load"], by_key["total_request_modified"],
                by_key["current_load_modified"]]
    worst_remedy_rt = max(stats.mean for stats in remedies)
    best_original_rt = min(stats.mean for stats in originals)
    worst_remedy_vlrt = max(stats.vlrt_fraction for stats in remedies)
    best_original_vlrt = min(stats.vlrt_fraction for stats in originals)
    combined = by_key["current_load_modified"].mean
    best_single = min(by_key["current_load"].mean,
                      by_key["total_request_modified"].mean)
    return {
        "remedies_improve_avg_rt": worst_remedy_rt < best_original_rt,
        "remedies_cut_vlrt": worst_remedy_vlrt < best_original_vlrt,
        "traffic_not_better_than_request": (
            by_key["original_total_traffic"].mean
            >= 0.8 * by_key["original_total_request"].mean),
        "combined_adds_nothing": combined <= 2.0 * best_single,
    }
