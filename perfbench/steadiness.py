"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage: ``python3 perfbench/steadiness.py``

Runs ``perfbench/run.py --trace 0`` :data:`RUNS` times on every workload
of BENCHMARK.json, with seeds 1 to :data:`RUNS` and BENCHMARK.json's
``run_seconds``, one process at a time, and prints for every end-to-end
metric the median and the spread: the distance between the first and
third quartile of the runs (as ``statistics.quantiles(values, n=4)``
gives them) as a share of the median.  A spread at or under a third of
the metric's bound is steady; over the bound, a regression of that size
could not be told from noise.  ``setup_s`` is reported the same way.
Exits 1 if any run was incorrect or failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
#: Runs per workload, one seed each: seeds 1 to RUNS.
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    healthy = True
    durations = []
    for name in [workload["name"] for workload in spec["workloads"]]:
        samples: dict = {}
        for seed in range(1, RUNS + 1):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=str(ROOT),
                timeout=RUN_TIMEOUT_S)
            durations.append(time.perf_counter() - started)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode or not result["correct"] or result["failed"]:
                healthy = False
                print("{} seed {}: exit {}, correct {}, failed {}".format(
                    name, seed, done.returncode, result["correct"],
                    result["failed"]))
            for key, metric in result["metrics"].items():
                samples.setdefault(key, []).append(metric["value"])
            print("{} seed {}: {}".format(name, seed, ", ".join(
                "{} {:.4f}".format(key, metric["value"])
                for key, metric in result["metrics"].items())), flush=True)
        for metric in spec["end_to_end"]:
            print(spread_line(name + " " + metric["name"],
                              samples[metric["name"]], metric["bound"]))
    mean = statistics.mean(durations)
    runs = 4 + 22 * len(spec["workloads"])
    print("one run took {:.1f} s on average: {} runs, as a full "
          "evaluation makes, take about {:.0f} s".format(
              mean, runs, runs * mean))
    return 0 if healthy else 1


def spread_line(label, values, bound) -> str:
    """Median and spread (IQR / median) of ``values`` against ``bound``."""
    median = statistics.median(values)
    if len(values) < 2:
        return "{:<40} {:10.4f} from one sample".format(label, median)
    quartiles = statistics.quantiles(values, n=4)
    spread = (quartiles[2] - quartiles[0]) / median
    verdict = ("steady (under a third of the bound)" if spread <= bound / 3
               else "within the bound" if spread <= bound
               else "OVER the bound")
    return ("{:<40} median {:10.4f} of {:2d}, spread {:.4f} vs bound {:.2f}:"
            " {}".format(label, median, len(values), spread, bound,
                         verdict))


if __name__ == "__main__":
    sys.exit(main())
