"""The benchmark proper: timed runs, set-up probes, checks, reports.

:func:`bench` is what ``perfbench/run.py`` calls for one invocation;
the self-test calls it too, at a shortened simulated length.
"""

from __future__ import annotations

import collections
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from steadiness import spread_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh processes timed for ``setup_s``, after one untimed warm-up
#: process that fills the bytecode and page caches.
SETUP_PROBES = 7
#: Timed runs per invocation, whatever ``--seconds`` allows: two is
#: the least that can compare fingerprints.
MIN_RUNS = 2
#: Layers a large-N run must not touch (their rows must be ~0).
BYPASSED_BY_LARGE_N = ("tiers", "osmodel", "netmodel", "core", "metrics")
#: Largest profiled self-time share a bypassed layer may show.
BYPASSED_SHARE = 1e-3
#: Allowed relative rounding in the sum of the self-time shares.
SHARE_SUM_TOL = 1e-9
#: Host seconds a set-up probe may take before it counts as hung.
CHILD_TIMEOUT_S = 60


def bench(name: str, seed: int, seconds: float, trace: bool,
          scale: float = 1.0) -> dict:
    """Run workload ``name`` and return the benchmark's JSON result.

    ``scale`` shortens the simulated length; only the self-test sets it.
    """
    manifest = json.loads(MANIFEST.read_text())
    spec = json.loads(SPEC.read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    start = time.perf_counter()
    print("workload {} seed {} simulated {:g} s, trace {}".format(
        name, seed, workloads.WORKLOADS[name].sim_seconds * scale,
        int(trace)))
    outcomes = []  # RunOutcome, or None for a run that raised
    setup = []
    rows = profiled_wall = profiled_total = None
    if trace:
        profiler = cProfile.Profile()
        outcome = _guarded(name, seed, scale, profiler)
        outcomes.append(outcome)
        stats = pstats.Stats(profiler).stats
        rows = layers.attribute(stats)
        profiled_total = layers.profiled_total(stats)
        if outcome is not None:
            profiled_wall = outcome.wall_s
    else:
        setup = setup_times(name, seed, scale)
    timed = []
    while (len(timed) < MIN_RUNS
           or time.perf_counter() - start < seconds):
        gc.collect()
        timed.append(_guarded(name, seed, scale))
    outcomes += timed
    walls = [outcome.wall_s for outcome in timed if outcome is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, reference = judge(outcomes)
    attempted = len(outcomes)
    checks = []
    print("runs: {} attempted, {} failed, failed_run_frac {:.4f}".format(
        attempted, failed, failed / attempted))
    if not walls or reference is None or (trace and profiled_wall is None):
        print("CHECK FAILED: no run succeeded")
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    observed = workloads.fingerprint(reference.counts)
    print("fingerprint {}; matches pinned: {}".format(
        observed, pinned_match(manifest, name, seed, scale, observed)))
    print(accuracy_line(name, reference))

    if trace:
        checks += profile_checks(name, rows, profiled_total)
        print(layer_table(name, rows, profiled_total))
        values = layer_values(rows, profiled_wall, walls, reference,
                              failed / attempted)
        kind = "per_layer"
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        kind = "end_to_end"
        # Spreads within this invocation; steadiness.py gives the spread
        # across invocations, which is what the bounds are judged on.
        print(spread_line("wall_s over runs", walls, bounds["wall_s"]))
        print(spread_line("setup_s over processes", setup,
                          bounds["setup_s"]))
        print("peak_rss_mb {:.2f}".format(peak_rss_mb))
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    if set(values) != set(units):
        checks.append("metrics differ from BENCHMARK.json: {}".format(
            sorted(set(values) ^ set(units))))
    metrics = {key: {"value": value, "unit": units.get(key, "")}
               for key, value in values.items()}
    for check in checks:
        print("CHECK FAILED: " + check)
    return {"correct": failed == 0 and not checks,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _guarded(name, seed, scale, profiler=None):
    """One run; ``None`` (with the traceback on stderr) if it raised."""
    try:
        return workloads.simulate(
            name, seed, workloads.TimedEnvironment(profiler=profiler), scale)
    except Exception:  # a failing run is counted, not fatal
        traceback.print_exc()
        if profiler is not None:
            profiler.disable()
        return None


def judge(outcomes):
    """Count failed runs; return ``(failed, reference_outcome)``.

    A run fails if it raised, broke a conservation identity, or has a
    fingerprint other than the most common one among the runs.
    """
    ok = [outcome for outcome in outcomes
          if outcome is not None and not outcome.broken]
    for outcome in outcomes:
        if outcome is not None and outcome.broken:
            print("broken identities: " + ", ".join(outcome.broken))
    if not ok:
        return len(outcomes), None
    prints = [workloads.fingerprint(outcome.counts) for outcome in ok]
    common, matching = collections.Counter(prints).most_common(1)[0]
    return (len(outcomes) - matching,
            ok[prints.index(common)])


def pinned_match(manifest, name, seed, scale, observed) -> str:
    """``yes``, or ``no`` with the reason: a deliberate re-baseline
    shows here without failing the run."""
    pins = manifest["pins"].get("{:g}".format(scale), {}).get(name, {})
    pinned = pins.get(str(seed))
    if pinned is None:
        return "no (no pin for seed {})".format(seed)
    if pinned != observed:
        return "no (pinned {})".format(pinned)
    return "yes"


def setup_times(name, seed, scale):
    """``setup_s`` samples, each from a fresh process."""
    command = [sys.executable, str(HERE / "setup_probe.py"), name,
               str(seed), repr(scale)]
    samples = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True,
                              cwd=str(ROOT))
        if probe:  # the first process only warms the caches
            samples.append(float(done.stdout.split()[-1]))
    return samples


def accuracy_line(name, reference) -> str:
    if name == "largeN_aggregated":
        return ("model.meanfield_err: measured mean sojourn vs the "
                "mean-field 1.9474 service times: {:+.4f} (reported, "
                "not gated)".format(reference.meanfield_err))
    return ("accuracy: the scaled classic model has no reference beyond "
            "the ordering of the paper's Table I")


def profile_checks(name, rows, total) -> list:
    """Failed checks of the per-layer rows; ``total`` is the profiler's
    own total self time, which the rows must add up to."""
    failures = []
    share_sum = sum(row["self_s"] for row in rows.values()) / total
    if abs(share_sum - 1.0) > SHARE_SUM_TOL:
        failures.append("self-time shares sum to {!r}".format(share_sum))
    if not workloads.WORKLOADS[name].trace_requests:
        if rows["tracing"]["self_s"] != 0.0:
            failures.append("tracing.self_s is {} on an untraced "
                            "workload".format(rows["tracing"]["self_s"]))
    if name == "largeN_aggregated":
        for layer in BYPASSED_BY_LARGE_N:
            if rows[layer]["self_s"] / total > BYPASSED_SHARE:
                failures.append("{} share {:.4f} on a workload that "
                                "bypasses it".format(
                                    layer, rows[layer]["self_s"] / total))
    return failures


def layer_table(name, rows, total) -> str:
    lines = ["per-layer profile of {} under cProfile: self_s and share "
             "charge C and other foreign time to the calling "
             "layer".format(name),
             "{:<10}{:>12}{:>9}{:>14}".format(
                 "layer", "self_s", "share", "calls")]
    for layer, row in rows.items():
        lines.append("{:<10}{:>12.4f}{:>8.1f}%{:>14,}".format(
            layer, row["self_s"], 100 * row["self_s"] / total,
            row["calls"]))
    lines.append("{:<10}{:>12.4f}{:>8.1f}%".format("total", total, 100.0))
    return "\n".join(lines)


def layer_values(rows, profiled_wall, walls, reference, failed_frac):
    """The per-layer metrics of BENCHMARK.json, by name."""
    values = {}
    for layer, row in rows.items():
        values[layer + ".self_s"] = row["self_s"]
        if layer != layers.OTHER:
            values[layer + ".calls"] = row["calls"]
    wall = statistics.median(walls)
    values["profile_overhead_x"] = profiled_wall / wall
    values.update(reference.counts)
    values["sim.us_per_event"] = 1e6 * wall / reference.counts["sim.events"]
    values["model.meanfield_err"] = abs(reference.meanfield_err)
    values["failed_run_frac"] = failed_frac
    return values
