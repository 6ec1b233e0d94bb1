"""Self-test of the benchmark at a short simulated length.

Usage: ``python3 perfbench/selftest.py``  (about a minute)

Runs every workload through :func:`harness.bench` in both modes at
:data:`SCALE` of its simulated length and checks the result against
the contract: correct, no failed run, exactly the metric names of
BENCHMARK.json, the fingerprint equal to the one pinned for this
length, and a per-layer table from the profiled pass.  Then it feeds
the checks deliberately bad input — a diverging fingerprint, a broken
identity, a run that raised, per-layer rows that lose profiled time,
tracing time on an untraced workload, a bypassed layer with time on
large-N — and checks that each is caught, and that the time of a
recursive foreign call stays with the layer that made it.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

#: Share of each workload's simulated length the self-test runs.
SCALE = 0.05


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit("selftest FAILED: " + message)


def main() -> None:
    expect(run.use_source(), "no simulator source at {}".format(run.SRC))
    import harness
    import layers
    import workloads

    spec = json.loads(harness.SPEC.read_text())
    names = {kind: {metric["name"] for metric in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    expect([workload["name"] for workload in spec["workloads"]]
           == list(workloads.WORKLOADS), "workloads differ from the spec")

    for name, workload in workloads.WORKLOADS.items():
        for trace in (False, True):
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                result = harness.bench(name, workload.default_seed, 0.0,
                                       trace, SCALE)
            text = report.getvalue()
            label = "{} trace {}".format(name, int(trace))
            json.dumps(result)
            expect(result["correct"], label + ": not correct\n" + text)
            expect(result["failed"] == 0 and result["attempted"] >= 2,
                   label + ": failed or too few runs")
            kind = "per_layer" if trace else "end_to_end"
            expect(set(result["metrics"]) == names[kind],
                   label + ": metric names differ from BENCHMARK.json")
            expect("matches pinned: yes" in text,
                   label + ": fingerprint does not match its pin\n" + text)
            expect(("per-layer profile of " + name in text) == trace,
                   label + ": per-layer table missing or unexpected")
            print("ok  " + label)

    outcome = workloads.simulate("classic_total_request", 42,
                                 workloads.TimedEnvironment(), SCALE)
    diverged = dataclasses.replace(outcome, counts=dict(
        outcome.counts, **{"sim.events": outcome.counts["sim.events"] + 1}))
    broken = dataclasses.replace(outcome, broken=["packet"])
    with contextlib.redirect_stdout(io.StringIO()):
        expect(harness.judge([outcome, outcome, diverged])[0] == 1,
               "a diverging fingerprint is not counted as failed")
        expect(harness.judge([outcome, broken, None])[0] == 2,
               "a broken identity or a raising run is not counted")
    manifest = {"pins": {"1": {"classic_total_request": {"42": "0" * 16}}}}
    expect(harness.pinned_match(manifest, "classic_total_request", 42, 1.0,
                                "f" * 16).startswith("no"),
           "a pin mismatch is not reported")
    print("ok  fingerprint, identity and pin checks")

    rows = {row: {"self_s": 1.0, "calls": 1} for row in layers.ROWS}
    total = float(len(rows))
    expect(not any("sum" in failure for failure in harness.profile_checks(
        "classic_total_request", rows, total)),
           "rows that add up to the profiled total are flagged")
    expect(any("sum" in failure for failure in harness.profile_checks(
        "classic_total_request", rows, total + 1.0)),
           "rows that lose profiled time are not caught")
    expect(any("tracing" in failure for failure in
               harness.profile_checks("classic_total_request", rows, total)),
           "tracing time on an untraced workload is not caught")
    expect(len(harness.profile_checks("largeN_aggregated", rows, total))
           == 1 + len(harness.BYPASSED_BY_LARGE_N),
           "bypassed layers with time on large-N are not caught")

    # A recursive foreign function called from the sim layer: all of
    # its time, the recursive calls' too, is charged to sim.
    caller = ("src/repro/sim/core.py", 1, "step")
    foreign = ("~", 0, "<built-in method sorted>")
    stats = {caller: (1, 1, 1.0, 1.8, {}),
             foreign: (3, 3, 0.8, 0.8, {caller: (1, 1, 0.5, 0.8),
                                        foreign: (2, 2, 0.3, 0.3)})}
    rows = layers.attribute(stats)
    expect(abs(rows["sim"]["self_s"] - 1.8) < 1e-12
           and rows[layers.OTHER]["self_s"] == 0.0,
           "recursive foreign time leaks out of the calling layer: "
           "{}".format(rows))
    print("ok  profile checks")


if __name__ == "__main__":
    main()
