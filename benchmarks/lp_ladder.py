"""LP oracle ladder: the float phase, the exact solve, the exact simplex and
`lp_feasible`, timed in-process on a fixed list of instances.

    python benchmarks/lp_ladder.py

Prints one JSON line per instance: its sizes m and t, |S| (the triangle
columns of the float basis), the float pivots, and the seconds of
`lp._float_basis`, of `lp._solve_on_columns` on its columns (the
float-guided exact solve), of the exact simplex `lp._phase_one` and of the
whole `lp_feasible` call, with whether the exact simplex fallback ran and the
verdict. Each time is the median of as many calls as reach both 7 calls and
0.2 s, so rows of a few milliseconds take dozens of calls; the whole ladder
takes about 3 minutes on two shared vCPUs. The package is imported from
`src/` of the checkout this file lives in.

The instances are random-min-degree graphs, which are feasible, and C4
blow-ups with a clique in each part, which are infeasible. The exact simplex
is timed up to n = 24 (`EXACT_MAX_N`), where it takes up to about 3 s on two
shared vCPUs; above that size `"exact_s"` reads null.

`lp_feasible` runs without the triangle cap. It is timed only when the float
basis gives a solution that `verify` accepts: otherwise it would run the exact
simplex. Such a line reads `"fallback": true` and `"lp_feasible_s": null`.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tridecomp import lp  # noqa: E402
from tridecomp.graph import enumerate_triangles, from_edge_list, triangle_edge_ids  # noqa: E402
from tridecomp.instances import GenSpec, generate  # noqa: E402
from tridecomp.verify import verify  # noqa: E402

# (n, fraction, seed) of random-min-degree instances, smallest first, then
# (n, None, None) of C4 blow-ups.
LADDER = (
    [(14, Fraction(4, 5), seed) for seed in range(4)]
    + [(20, Fraction(4, 5), seed) for seed in range(2)]
    + [(30, Fraction(4, 5), 0), (40, Fraction(7, 10), 0), (40, Fraction(4, 5), 0)]
    + [(n, None, None) for n in (12, 16, 20, 24)]
)

# The exact simplex is timed on instances up to this many vertices.
EXACT_MAX_N = 24

# A single call of a few milliseconds is mostly noise on a shared machine, so
# every row is the median of at least REPEATS calls, and of as many more as
# fill MIN_TIME_S, which resolves rows of a few milliseconds.
REPEATS = 7
MIN_TIME_S = 0.2


def _timed(f, *args):
    """The result of `f(*args)` and the median seconds of its calls, repeated
    until there are at least `REPEATS` of them and they took `MIN_TIME_S` in
    all."""
    times = []
    spent = 0.0
    while len(times) < REPEATS or spent < MIN_TIME_S:
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


def _c4_blowup(n):
    """n = 4k vertices in parts V0..V3 of size k: a clique in each part, V_i
    joined completely to V_{i+-1 mod 4} and not at all to V_{i+2}. Its min
    degree is 3n/4 - 1, and its LP is infeasible."""
    k = n // 4
    return from_edge_list(
        [(u, v) for u, v in combinations(range(n), 2) if v // k - u // k != 2], n
    )


def run(n, fraction, seed):
    if fraction is None:
        g, name = _c4_blowup(n), f"c4-blowup n={n}"
    else:
        g = generate(GenSpec("random-min-degree", n=n, fraction=fraction, seed=seed))
        name = f"random-min-degree n={n} fraction={fraction} seed={seed}"
    triangles = enumerate_triangles(g)
    ids = triangle_edge_ids(g, triangles)
    record = {"instance": name, "m": g.m, "t": int(triangles.shape[0])}
    columns, record["float_s"] = _timed(lp._float_basis, ids, g.m)
    record["support"] = None if columns is None else len(columns)
    record["pivots"] = _count_pivots(ids, g.m)
    solved, record["solve_s"] = (None, None) if columns is None else _timed(
        lp._solve_on_columns, ids, g.m, columns
    )
    certified = solved is not None and verify(g, lp._witness(triangles, columns, *solved)).ok
    record["exact_s"], record["verdict"] = None, "FEASIBLE" if certified else None
    if n <= EXACT_MAX_N:
        (_, nums, _), record["exact_s"] = _timed(lp._phase_one, ids, g.m)
        record["verdict"] = "FEASIBLE" if nums[-1, -1] == 0 else "INFEASIBLE"
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
