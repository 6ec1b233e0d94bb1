"""Per-layer self time from a ``cProfile`` pass.

A layer is a subpackage of ``repro`` (see ``workloads.LAYERS``); a
function belongs to the layer whose directory holds its source file.
Repro code outside those nine subpackages and the benchmark's own code
form the ``other`` row.  Everything else — C functions, the standard
library, numpy's Python code — is *foreign*: its self time is charged
to the layer that called it, split over its callers in proportion to
the time it spent under each.  So the rows sum to the profiled total.
"""

from __future__ import annotations

import os

from workloads import LAYERS

OTHER = "other"
ROWS = LAYERS + (OTHER,)


def profiled_total(stats: dict) -> float:
    """The profiler's own total self time over all functions."""
    return sum(entry[2] for entry in stats.values())


def attribute(stats: dict) -> dict:
    """Fold raw ``pstats`` entries into per-layer self time and calls.

    Returns a dict mapping each of :data:`ROWS` to ``{"self_s": ...,
    "calls": ...}``: ``self_s`` includes the foreign time charged to
    the row and ``calls`` counts calls of the row's own functions.
    """
    src_root = os.path.join("src", "repro") + os.sep
    bench_root = os.path.dirname(os.path.abspath(__file__)) + os.sep
    home = {}
    for func in stats:
        filename = os.path.abspath(func[0])
        marker = filename.rfind(src_root)
        if marker >= 0:
            package = filename[marker + len(src_root):].split(os.sep)[0]
            home[func] = package if package in LAYERS else OTHER
        elif filename.startswith(bench_root):
            home[func] = OTHER

    shares_memo: dict = {}

    def shares(func, visiting):
        """Fractions of ``func``'s time owed to each row, and whether
        a caller edge back into ``visiting`` was left out on the way
        (then the fractions hold only on this path)."""
        if func in home:
            return {home[func]: 1.0}, False
        if func in shares_memo:
            return shares_memo[func], False
        callers = stats[func][4]
        if not callers:
            return {OTHER: 1.0}, False
        visiting = visiting | {func}
        # Weigh callers by the time spent under each, or by call count
        # where the clock saw none.  A caller already on the path is a
        # cycle: its edge is left out and the rest renormalised.
        column = 3 if sum(entry[3] for entry in callers.values()) else 1
        out: dict = {}
        cut = False
        for caller, entry in callers.items():
            if caller in visiting:
                cut = True
                continue
            part_shares, part_cut = shares(caller, visiting)
            cut = cut or part_cut
            for row, part in part_shares.items():
                out[row] = out.get(row, 0.0) + entry[column] * part
        mass = sum(out.values())
        if mass:
            out = {row: part / mass for row, part in out.items()}
        if not cut:
            shares_memo[func] = out
        return out, cut

    def charge(amount, func, visiting):
        """Add ``amount`` seconds to the rows ``func`` is owed to."""
        owed, _ = shares(func, visiting)
        for row, part in (owed or {OTHER: 1.0}).items():
            rows[row]["self_s"] += amount * part

    rows = {row: {"self_s": 0.0, "calls": 0} for row in ROWS}
    for func, (_, calls, self_s, _, callers) in stats.items():
        if func in home:
            rows[home[func]]["self_s"] += self_s
            rows[home[func]]["calls"] += calls
            continue
        # Charge the time spent under each caller to that caller's row;
        # a recursive call's time goes to the callers outside the cycle.
        if callers:
            for caller, entry in callers.items():
                charge(entry[2], caller, frozenset((func,)))
            # Self time with no per-caller record (rounding, recursion).
            rest = self_s - sum(entry[2] for entry in callers.values())
        else:
            rest = self_s
        if rest:
            charge(rest, func, frozenset())
    return rows
