"""Trace exporters: Chrome trace-event JSON and per-request reports.

``chrome_trace`` renders traces in the Chrome/Perfetto trace-event
format (load via ``chrome://tracing`` or https://ui.perfetto.dev):
one process per request, one thread row per tier, so a VLRT request's
retransmission gaps and queue waits are visible on a timeline.

``trace_report`` renders one request's span tree as indented text with
its critical-path bucket summary — the "why did this request take
3.007 s" answer, printable from the CLI.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable

from repro.tracing.critical_path import decompose

if TYPE_CHECKING:  # pragma: no cover
    from repro.tracing.spans import RequestTrace, Span

__all__ = ["chrome_trace", "write_chrome_trace", "trace_report"]

#: Stable thread row per tier prefix, in stack order top to bottom.
_TIER_ROWS = {"request": 0, "tcp": 0, "apache": 1, "balancer": 2,
              "hedge": 2, "tomcat": 3, "mysql": 4}
_TIER_NAMES = {0: "client", 1: "web (apache)", 2: "balancer",
               3: "app (tomcat)", 4: "db (mysql)"}


def _row(span: "Span") -> int:
    return _TIER_ROWS.get(span.name.split(".", 1)[0], 5)


def chrome_trace(traces: Iterable["RequestTrace"]) -> dict:
    """Render traces as a Chrome trace-event JSON object."""
    events = []
    pids = set()
    for trace in traces:
        pid = trace.request_id
        pids.add(pid)
        for span in trace.root.walk():
            end = span.end if span.end is not None else span.start
            event = {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": pid,
                "tid": _row(span),
            }
            if span.meta:
                event["args"] = {key: value
                                 for key, value in span.meta.items()}
            events.append(event)
    for pid in sorted(pids):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0,
                       "args": {"name": "request {}".format(pid)}})
        for tid, label in _TIER_NAMES.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": label}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(traces: Iterable["RequestTrace"],
                       path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(traces), handle)
    return path


def trace_report(trace: "RequestTrace") -> str:
    """One request's span tree as indented text with bucket summary."""
    lines = ["request #{}: {:.1f} ms ({})".format(
        trace.request_id, 1000.0 * trace.duration,
        trace.status or "open")]
    for span in trace.root.walk():
        detail = ""
        if span.meta:
            detail = "  " + " ".join(
                "{}={}".format(key, value)
                for key, value in span.meta.items())
        lines.append("  {}{:<28s} {:>10.3f} ms{}".format(
            "  " * span.depth, span.name, 1000.0 * span.duration, detail))
    path = decompose(trace)
    lines.append("  critical path (dominant: {}):".format(path.dominant))
    for bucket, seconds in sorted(path.buckets.items(),
                                  key=lambda item: -item[1]):
        if seconds <= 0.0:
            continue
        lines.append("    {:<20s} {:>10.3f} ms  ({:.1f}%)".format(
            bucket, 1000.0 * seconds, 100.0 * path.fraction(bucket)))
    return "\n".join(lines)
