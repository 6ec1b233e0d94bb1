"""Re-pin the model fingerprints in ``perfbench/manifest.json``.

Usage: ``python3 perfbench/pin.py``

Runs every workload once per pinned seed, at full length and at the
self-test's length, and rewrites the manifest's ``pins`` (scale ->
workload -> seed -> fingerprint) and ``host`` entries.  Pin only after
a deliberate change of simulated behaviour, and say why in the change
that does it: the benchmark prints "matches pinned: no" until then.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import run

#: Seeds pinned at full length: the workloads' own seeds and 0-15.
PINNED_SEEDS = tuple(range(16)) + (42,)


def main() -> None:
    if not run.use_source():
        sys.exit("perfbench: no simulator source at {}".format(run.SRC))
    import numpy

    import harness
    import selftest
    import workloads

    manifest = json.loads(harness.MANIFEST.read_text())
    pins = {}
    for scale, seeds in ((1.0, PINNED_SEEDS), (selftest.SCALE, None)):
        key = "{:g}".format(scale)
        pins[key] = {}
        for name, workload in workloads.WORKLOADS.items():
            chosen = seeds or (workload.default_seed,)
            pins[key][name] = {}
            for seed in chosen:
                outcome = workloads.simulate(
                    name, seed, workloads.TimedEnvironment(), scale)
                pins[key][name][str(seed)] = workloads.fingerprint(
                    outcome.counts)
                print(key, name, seed, pins[key][name][str(seed)],
                      flush=True)
    manifest["pins"] = pins
    manifest["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    harness.MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
