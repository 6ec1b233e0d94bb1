"""End-to-end benchmark of the simulator, with a per-layer profile.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload classic_total_request \\
        --seed 42 --seconds 30 --trace 0

Runs one workload of ``perfbench/workloads.py`` as a single-process,
single-threaded batch job, over and over for ``--seconds`` host seconds
(at least twice), with ``--seed`` as the simulation seed (default: the
workload's own).  Every run is checked: it must not raise, must close
the conservation identities and must reproduce the model counts (the
fingerprint) of the other runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s`` — median host seconds of one run's simulation, set-up
  excluded;
* ``setup_s`` — median, over fresh processes, of the host seconds from
  before ``import repro`` to the first simulated event;
* ``peak_rss_mb`` — peak resident memory of this process.

``--trace 1`` first runs the workload once under ``cProfile`` and then
times it as above; it reports the per-layer metrics: profiled self time
and calls per layer, the profiler's overhead, and the model counts.

The human-readable report goes to standard output; its last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without the simulator's source beside it the command
fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_source() -> bool:
    """Put the checkout's ``src`` on ``sys.path``; False if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source():
        print("perfbench: no simulator source at {}".format(SRC),
              file=sys.stderr)
        return 2
    import harness

    workload = harness.workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error("unknown workload {!r}; choose from {}".format(
            args.workload, ", ".join(harness.workloads.WORKLOADS)))
    seed = workload.default_seed if args.seed is None else args.seed
    result = harness.bench(args.workload, seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
