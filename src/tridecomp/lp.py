"""Exact feasibility oracle: phase-1 simplex over the edge/triangle incidence.

Decides whether non-negative triangle weights exist whose sums over each edge
equal exactly 1, by minimizing the total artificial slack. The tableau is one
pair of arrays: integer numerator rows `nums` and one positive denominator per
row `dens`, gcd-reduced after every pivot. There is one pivot, `_pivot`. It
runs on int64 while every entry and denominator is below `_NUMPY_GUARD` =
2^31, so no cross product overflows; once the guard trips, both arrays are
promoted to object arrays of Python ints and the same pivot continues on them.

Pivoting. The entering column is the one with the most negative objective-row
entry (the largest-coefficient rule), ties going to the smallest index; the
objective row shares one denominator, so its numerators compare as values.
The leaving row is the minimum-ratio row, ties going to the smallest basic
variable. A pivot is degenerate when its winning ratio is 0. After
`_STALL_LIMIT` consecutive degenerate pivots the entering rule switches to
Bland's smallest-index rule until the next non-degenerate pivot.

Termination. A non-degenerate pivot strictly lowers the phase-1 objective,
which is a function of the basis, so no basis seen before it recurs after it,
and there are finitely many bases. Inside one degenerate stretch at most
`_STALL_LIMIT` pivots use the largest-coefficient rule; the rest use Bland's
entering and leaving rules, which cannot cycle (Bland 1977, "New finite
pivoting rules for the simplex method"). Artificial columns that leave the
basis are banned from re-entering; the banned set only grows, and for a fixed
banned set the banned columns simply drop out of the problem. So every
stretch ends, and so does the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition, _int_dtype
from .errors import LPSizeError
from .graph import enumerate_triangles, triangle_edge_ids
from .verify import verify

DEFAULT_MAX_LP_TRIANGLES = 5000

# Entries below this bound cannot overflow int64 in one cross-multiplication.
_NUMPY_GUARD = 1 << 31

# Consecutive degenerate pivots allowed before Bland's entering rule takes over.
_STALL_LIMIT = 64


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    decomposition: Decomposition | None

    def __bool__(self):
        return self.feasible


def _pivot(nums, dens, r, c):
    """Pivot in place on entry (r, c), which is positive: row i becomes
    (p * row_i - a_i * row_r) / (p * den_i), then every row is gcd-reduced.
    Runs unchanged on int64 and on object arrays of Python ints."""
    p = nums[r, c]
    col = nums[:, c].copy()
    pivot_row = nums[r].copy()
    nums *= p
    nums -= np.outer(col, pivot_row)
    nums[r] = pivot_row
    dens *= p
    dens[r] = p
    g = np.gcd(np.gcd.reduce(np.abs(nums), axis=1), dens)
    g[g == 0] = 1
    nums //= g[:, None]
    dens //= g


def _initial_tableau(ids, m):
    """Phase-1 tableau [A | I | 1] over the objective row, from the (t, 3)
    triangle edge ids: one row per edge, one column per triangle, then one
    artificial column per edge and the right-hand side."""
    t = ids.shape[0]
    nums = np.zeros((m + 1, t + m + 1), np.int64)
    nums[ids, np.arange(t)[:, None]] = 1
    nums[np.arange(m), t + np.arange(m)] = 1
    nums[:m, -1] = 1
    # Minus the column sums: each triangle column holds three ones.
    nums[m, :t] = -3
    nums[m, -1] = -m
    return nums, np.ones(m + 1, np.int64)


def _phase_one(ids, m):
    """Run the phase-1 simplex; returns the final basis and (nums, dens)."""
    t = ids.shape[0]
    nums, dens = _initial_tableau(ids, m)
    basis = list(range(t, t + m))
    banned = np.zeros(t + m, np.bool_)
    stalled = 0

    while True:
        objective = nums[m, : t + m]
        candidates = np.flatnonzero((objective < 0) & ~banned)
        if candidates.size == 0:
            return basis, nums, dens
        if stalled >= _STALL_LIMIT:
            entering = int(candidates[0])
        else:
            entering = int(candidates[np.argmin(objective[candidates])])
        rows = np.flatnonzero(nums[:m, entering] > 0)
        leave_row = None
        best_num = best_den = None
        for i, a, rn in zip(
            rows.tolist(), nums[rows, entering].tolist(), nums[rows, -1].tolist()
        ):
            # Ratios share the row denominator with the pivot entry, so the
            # comparison rhs_i/a_i < rhs_k/a_k is the integer cross product.
            if leave_row is None or rn * best_den < best_num * a or (
                rn * best_den == best_num * a and basis[i] < basis[leave_row]
            ):
                leave_row = i
                best_num, best_den = rn, a
        if leave_row is None:
            raise AssertionError("phase-1 objective is bounded; no pivot row found")
        stalled = stalled + 1 if best_num == 0 else 0
        if nums.dtype != object:
            peak = max(int(np.abs(nums).max(initial=0)), int(dens.max(initial=1)))
            if peak >= _NUMPY_GUARD:
                nums, dens = nums.astype(object), dens.astype(object)
        _pivot(nums, dens, leave_row, entering)
        leaving = basis[leave_row]
        if leaving >= t:
            banned[leaving] = True
        basis[leave_row] = entering


def lp_feasible(g, max_triangles=DEFAULT_MAX_LP_TRIANGLES):
    """Decide fractional triangle decomposability exactly; witness on success.

    Solves the m x t feasibility system directly, independent of the flow
    method. Intended for small instances; instances with more than
    `max_triangles` triangles abort with LPSizeError.
    """
    if g.m == 0:
        return FeasibilityVerdict(True, Decomposition.from_entries([], graph=g))
    triangles = enumerate_triangles(g)
    t = int(triangles.shape[0])
    if t > max_triangles:
        raise LPSizeError(max_triangles, t)
    if t == 0:
        return FeasibilityVerdict(False, None)

    basis, nums, dens = _phase_one(triangle_edge_ids(g, triangles), g.m)
    if nums[-1, -1] != 0:
        return FeasibilityVerdict(False, None)

    # Basic triangle columns carry the values rhs_i / den_i; all others are 0.
    rows = [i for i, j in enumerate(basis) if j < t]
    rhs, den = nums[rows, -1], dens[rows]
    common = np.gcd(rhs, den)
    values = list(zip((rhs // common).tolist(), (den // common).tolist()))
    denominator = math.lcm(*(q for _, q in values))
    scaled = [p * (denominator // q) for p, q in values]
    numerators = np.zeros(t, _int_dtype(max(denominator, sum(map(abs, scaled)))))
    numerators[[basis[i] for i in rows]] = scaled
    d = Decomposition(g, triangles, numerators, denominator)
    report = verify(g, d)
    if not report.ok:
        raise AssertionError(f"simplex witness failed to verify: {report}")
    return FeasibilityVerdict(True, d)
