"""Print one ``setup_s`` sample, measured in this fresh process.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED SCALE``

The clock starts before ``import repro`` and stops at the first
simulated event, so the sample covers the import (numpy included) and
the construction of config, system and client population: what a user
pays on every command-line call before anything is simulated.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports repro)


def main() -> None:
    name, seed, scale = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    env = workloads.TimedEnvironment(stop_at_run=True)
    try:
        workloads.simulate(name, seed, env, scale)
    except workloads.SetupDone:
        pass
    print(repr(env.run_started - STARTED))


if __name__ == "__main__":
    main()
