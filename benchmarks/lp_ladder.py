"""LP oracle ladder: the float phase, the exact solve and `lp_feasible`, timed
in-process on a fixed list of instances.

    python benchmarks/lp_ladder.py

Prints one JSON line per instance: its sizes m and t, |S| (the triangle
columns of the float basis), the float pivots, and the seconds of
`lp._float_basis`, of `lp._solve_on_columns` on its columns and of the whole
`lp_feasible` call (each the median of up to 7 calls within about 1 s), with
whether the exact simplex fallback ran. The package is imported from `src/`
of the checkout this file lives in.

`lp_feasible` runs without the triangle cap. It is timed only when the float
basis gives a solution that `verify` accepts: otherwise it would run the exact
simplex, which takes about 10 s at n=20 and over 900 s at n=30. Such a line
reads `"fallback": true` and `"lp_feasible_s": null`.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tridecomp import lp  # noqa: E402
from tridecomp.graph import enumerate_triangles, triangle_edge_ids  # noqa: E402
from tridecomp.instances import GenSpec, generate  # noqa: E402
from tridecomp.verify import verify  # noqa: E402

# (n, fraction, seed) of random-min-degree instances, smallest first.
LADDER = (
    [(14, Fraction(4, 5), seed) for seed in range(4)]
    + [(20, Fraction(4, 5), seed) for seed in range(2)]
    + [(30, Fraction(4, 5), 0), (40, Fraction(7, 10), 0), (40, Fraction(4, 5), 0)]
)

# A single call of a few milliseconds is mostly noise on a shared machine, so
# small instances are timed as the median of several calls; a call of seconds
# runs once.
REPEATS = 7
BUDGET_S = 1.0


def _timed(f, *args):
    """The result of `f(*args)` and the median seconds of up to `REPEATS` calls,
    stopping once the calls have taken `BUDGET_S` in all."""
    times = []
    spent = 0.0
    while len(times) < REPEATS and spent < BUDGET_S:
        start = time.perf_counter()
        result = f(*args)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return result, statistics.median(times)


def _count_pivots(ids, m):
    """Pivots of one untimed `lp._float_basis` run, counted as executions of
    its basis update by a line tracer on that function alone."""
    code = lp._float_basis.__code__
    lines, first = inspect.getsourcelines(lp._float_basis)
    target = first + next(
        i for i, line in enumerate(lines) if line.strip() == "basis[leave_row] = entering"
    )
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == target:
            count += 1
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        lp._float_basis(ids, m)
    finally:
        sys.settrace(None)
    return count


def run(n, fraction, seed):
    g = generate(GenSpec("random-min-degree", n=n, fraction=fraction, seed=seed))
    triangles = enumerate_triangles(g)
    ids = triangle_edge_ids(g, triangles)
    record = {
        "instance": f"random-min-degree n={n} fraction={fraction} seed={seed}",
        "m": g.m,
        "t": int(triangles.shape[0]),
    }
    columns, record["float_s"] = _timed(lp._float_basis, ids, g.m)
    record["support"] = None if columns is None else len(columns)
    record["pivots"] = _count_pivots(ids, g.m)
    solved, record["solve_s"] = (None, None) if columns is None else _timed(
        lp._solve_on_columns, ids, g.m, columns
    )
    certified = solved is not None and verify(g, lp._witness(triangles, columns, *solved)).ok
    record["lp_feasible_s"], record["fallback"] = None, True
    if certified:
        # Record whether `lp_feasible` calls the exact simplex after all.
        calls = []
        phase_one = lp._phase_one
        lp._phase_one = lambda *args: calls.append(args) or phase_one(*args)
        try:
            _, record["lp_feasible_s"] = _timed(lp.lp_feasible, g, record["t"])
        finally:
            lp._phase_one = phase_one
        record["fallback"] = bool(calls)
    return record


def main():
    for n, fraction, seed in LADDER:
        print(json.dumps(run(n, fraction, seed)), flush=True)


if __name__ == "__main__":
    main()
