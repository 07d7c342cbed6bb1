"""Flow stage ladder: the stages of `decompose.solve` timed on a fixed list of
instances, each in a fresh process.

    python benchmarks/flow_ladder.py

Prints one JSON line per instance: its sizes (m of the peeled graph, slots
of the arc network), the capacity dtype the network was built with,
whether the flow saturates or gives a cut, the seconds of `build_network`, `to_arc_network`,
`max_flow`, `apply_transfer` (null on a cut) and the whole `solve` call, and
the process's peak resident set (`ru_maxrss`, MB) just before and just after
`max_flow`. `ru_maxrss` is a high-water mark over the process's lifetime, so
every instance runs in its own child process; the peeling before `solve` is
not timed, and scipy is imported before it. One run, not a median: the paper-scale rows take seconds each.
The package is imported from `src/` of the checkout this file lives in.
"""

from __future__ import annotations

import importlib
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tridecomp.instances import GenSpec, generate  # noqa: E402
from tridecomp.peeling import peel_heavy_triangles  # noqa: E402

# The module, not the package's `decompose` function of the same name.
decompose = importlib.import_module("tridecomp.decompose")

# (family, n, fraction); every instance at seed 0.
LADDER = [("complete-minus-hamilton", n, None) for n in (30, 45, 70, 100)] + [
    ("random-min-degree", n, Fraction(fraction))
    for n, fraction in [(40, "4/5"), (40, "9/10"), (100, "7/10"), (100, "9/10")]
]


def _peak_mb():
    """The process's peak resident set so far in MB (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _timed(owner, name, record, around=None):
    """Replace `owner.name` by a wrapper that stores its seconds in
    record[name + "_s"] and, when `around` is given, calls
    around(record, args, "before") and around(record, args, "after") next to
    the call."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if around:
            around(record, args, "before")
        start = time.perf_counter()
        result = real(*args, **kwargs)
        record[name + "_s"] = round(time.perf_counter() - start, 4)
        if around:
            around(record, args, "after")
        return result

    setattr(owner, name, wrapper)


def _around_flow(record, args, when):
    record[f"rss_{when}_flow_mb"] = _peak_mb()
    if when == "before":
        record["slots"] = int(args[0].capacities.size)
        record["capacity_dtype"] = str(args[0].capacities.dtype)


def run(family, n, fraction):
    """The JSON record of one instance, measured in this process."""
    g = generate(GenSpec(family, n=n, fraction=fraction, seed=0))
    name = f"{family} n={n}" + ("" if fraction is None else f" fraction={fraction}")
    peel = peel_heavy_triangles(g)
    fields = ["slots", "capacity_dtype", "outcome", "build_network_s", "to_arc_network_s",
              "max_flow_s", "apply_transfer_s", "solve_s", "rss_before_flow_mb",
              "rss_after_flow_mb"]
    record = {"instance": name, "m": peel.residual.m, **dict.fromkeys(fields)}
    # `max_flow` imports scipy on its first call; that import is not flow time.
    importlib.import_module("scipy.sparse.csgraph")
    # `solve` looks these up as module globals, and `to_arc_network` as a
    # method of FlowNetwork.
    for owner, stage in [
        (decompose, "build_network"),
        (decompose.FlowNetwork, "to_arc_network"),
        (decompose, "apply_transfer"),
    ]:
        _timed(owner, stage, record)
    _timed(decompose, "max_flow", record, around=_around_flow)
    start = time.perf_counter()
    result = decompose.solve(peel.residual, peel.deficiency)
    record["solve_s"] = round(time.perf_counter() - start, 4)
    record["outcome"] = "cut" if isinstance(result, decompose.CutCertificate) else "saturates"
    return record


def main(argv):
    if argv:
        family, n, fraction = argv
        record = run(family, int(n), None if fraction == "-" else Fraction(fraction))
        print(json.dumps(record), flush=True)
        return
    for family, n, fraction in LADDER:
        child = [sys.executable, __file__, family, str(n), "-" if fraction is None else str(fraction)]
        subprocess.run(child, check=True)


if __name__ == "__main__":
    main(sys.argv[1:])
