"""Golden CLI tables: the exact stdout of short smoke runs.

Each case runs ``repro-lb`` in-process and compares its stdout byte for
byte against a file in ``tests/golden_cli/``.  The tables are the
user-facing contract of the experiment grids (chaos, Table I, the
modern-policy rematch, geo, replicate, controlplane) and of topology
runs (``run --topology``, ``chaos --topology``): a refactor of the
grid, spec or metrics code must leave every one of them unchanged, and the
chaos grid must print the same table under ``--workers 1`` and
``--workers 2``.

Regenerate (only for a deliberate output change, with the reason
recorded) with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden_cli")
#: Spec-file paths in the cases are relative to the repository root.
ROOT = Path(__file__).resolve().parent.parent

CHAOS = ["chaos", "--faults", "crash,transient_crash",
         "--remedies", "none,full", "--duration", "4"]

#: (golden file stem, argv) per case.
CASES = [
    ("chaos", CHAOS + ["--workers", "1"]),
    ("chaos", CHAOS + ["--workers", "2"]),
    ("table1", ["table1", "--duration", "1"]),
    ("table1_rematch", ["table1", "--policies", "prequal,jiq",
                        "--faults", "slow", "--duration", "3"]),
    ("geo", ["geo", "--faults", "cache_failover", "--duration", "4"]),
    ("replicate", ["replicate", "table1/current_load", "--runs", "2",
                   "--duration", "1"]),
    ("controlplane", ["controlplane", "--millibottleneck",
                      "--duration", "4"]),
    ("controlplane_autoscale_fast",
     ["controlplane", "--remedy", "autoscale_fast", "--millibottleneck",
      "--duration", "8"]),
    ("controlplane_bulkhead",
     ["controlplane", "--remedy", "bulkhead", "--millibottleneck",
      "--duration", "8"]),
    ("run_replicated_db",
     ["run", "--topology", "replicated_db", "--duration", "6"]),
    ("run_four_tier", ["run", "--topology", "four_tier", "--duration", "6"]),
    ("chaos_autoscaled",
     ["chaos", "--topology", "examples/topologies/autoscaled.json",
      "--faults", "packet_loss", "--remedies", "none,bulkhead",
      "--bundles", "current_load_modified", "--duration", "4"]),
]


@pytest.mark.parametrize(
    "name,argv", CASES,
    ids=["{}[{}]".format(name, " ".join(argv[1:])) for name, argv in CASES])
def test_cli_stdout_matches_golden(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    expected = (GOLDEN_DIR / (name + ".txt")).read_text()
    assert capsys.readouterr().out == expected


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import contextlib
    import io

    import os

    GOLDEN_DIR.mkdir(exist_ok=True)
    os.chdir(ROOT)
    for name, argv in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main(argv)
        (GOLDEN_DIR / (name + ".txt")).write_text(buffer.getvalue())
        print("wrote", name)
