"""Geo-topology throughput: spec-driven build and end-to-end run.

Two measurements pin the cost of the geo machinery added for the
zone-hierarchy experiments:

* **build** — :func:`~repro.cluster.topology.build_from_spec` on the
  two-zone ``geo`` builtin: zone placement, WAN link construction,
  per-zone balancers under zone routers, the cache tier and the
  consistent-hash shard ring.  A quadratic ring rebuild or per-link
  allocation storm shows up here first.
* **run** — a 6-simulated-second geo experiment in kernel events per
  second; the WAN transit generators and cache/shard dispatch sit on
  the per-request hot path, so a slow hop implementation drags this
  number down system-wide.

Same noise discipline as ``test_kernel_throughput.py``: best-of-rounds,
ratios against the recorded baseline in ``BENCH_geo.json``, and floors
far below the recorded numbers so shared CI runners don't flake.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.spec import TopologySpec, get_topology
from repro.cluster.topology import build_from_spec
from repro.sim.core import Environment

ROUNDS = 3
BUILDS_PER_ROUND = 30
RUN_DURATION = 6.0
BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_geo.json"
#: Floor vs the recorded baseline — catches structural regressions,
#: not slower runners.
MIN_RATIO = 0.5


def _baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


def _measure_builds() -> float:
    best = 0.0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for i in range(BUILDS_PER_ROUND):
            build_from_spec(Environment(), get_topology("geo"),
                            rng=np.random.default_rng(i))
        best = max(best,
                   BUILDS_PER_ROUND / (time.perf_counter() - start))
    return best


def _measure_run_events() -> float:
    spec = TopologySpec.geo(disk_bandwidth=3e6, clients=80)
    best = 0.0
    for _ in range(ROUNDS):
        config = ExperimentConfig(
            topology=spec, duration=RUN_DURATION, seed=42,
            trace_balancers=False)
        env = Environment()
        start = time.perf_counter()
        ExperimentRunner(config).run(env=env)
        best = max(best, env._eid / (time.perf_counter() - start))
    return best


def test_geo_throughput(benchmark):
    box: dict[str, float] = {}

    def work():
        box["builds_per_sec"] = _measure_builds()
        box["events_per_sec"] = _measure_run_events()

    benchmark.pedantic(work, rounds=1, iterations=1)
    baseline = _baseline()
    build_ratio = (box["builds_per_sec"]
                   / baseline["build"]["builds_per_sec"])
    run_ratio = (box["events_per_sec"]
                 / baseline["run"]["events_per_sec"])
    benchmark.extra_info["builds_per_sec"] = round(box["builds_per_sec"])
    benchmark.extra_info["run_events_per_sec"] = round(
        box["events_per_sec"])
    benchmark.extra_info["build_ratio_vs_baseline"] = round(build_ratio, 3)
    benchmark.extra_info["run_ratio_vs_baseline"] = round(run_ratio, 3)
    print("geo build  {:10,.0f} builds/s  ({:.2f}x baseline)".format(
        box["builds_per_sec"], build_ratio))
    print("geo run    {:10,.0f} events/s  ({:.2f}x baseline)".format(
        box["events_per_sec"], run_ratio))
    assert build_ratio >= MIN_RATIO, (
        "geo build throughput regressed to {:.2f}x the recorded "
        "baseline (floor {:.2f}x)".format(build_ratio, MIN_RATIO))
    assert run_ratio >= MIN_RATIO, (
        "geo run throughput regressed to {:.2f}x the recorded "
        "baseline (floor {:.2f}x)".format(run_ratio, MIN_RATIO))
