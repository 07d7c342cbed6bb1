"""Exact feasibility oracle: phase-1 simplex over the edge/triangle incidence.

Decides whether non-negative triangle weights exist whose sums over each edge
equal exactly 1, by minimizing the total artificial slack. The tableau is held
as integer numerator rows with one positive denominator per row, gcd-reduced
after every pivot; the hot path is vectorized numpy int64 guarded by a
proven-no-overflow bound, falling back losslessly to Python big ints when the
guard trips. Both paths perform the identical pivot sequence, so results are
bit-reproducible.

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
from fractions import Fraction

import numpy as np

from .decompose import Decomposition
from .errors import LPSizeError
from .graph import enumerate_triangles, triangle_edge_ids

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


class _Overflow(Exception):
    pass


class _NumpyTableau:
    def __init__(self, nums, dens):
        self.nums = nums
        self.dens = dens

    def entry(self, i, j):
        return int(self.nums[i, j]), int(self.dens[i])

    def entering(self, limit, banned, bland):
        row = self.nums[-1, :limit]
        candidates = np.flatnonzero((row < 0) & ~banned)
        if candidates.size == 0:
            return None
        if bland:
            return int(candidates[0])
        return int(candidates[np.argmin(row[candidates])])

    def column_signs(self, col, rows):
        return self.nums[:rows, col]

    def pivot(self, r, c):
        nums, dens = self.nums, self.dens
        peak = max(int(np.abs(nums).max(initial=0)), int(dens.max(initial=1)))
        if peak >= _NUMPY_GUARD:
            raise _Overflow
        p = int(nums[r, c])
        col = nums[:, c].copy()
        pivot_row = nums[r].copy()
        nums *= p
        nums -= np.outer(col, pivot_row)
        nums[r] = pivot_row
        dens *= p
        dens[r] = p
        g = np.gcd.reduce(np.abs(nums), axis=1)
        g = np.gcd(g, dens)
        g[g == 0] = 1
        nums //= g[:, None]
        dens //= g

    def to_python(self):
        return _PyTableau(self.nums.tolist(), self.dens.tolist())


class _PyTableau:
    def __init__(self, nums, dens):
        self.nums = nums
        self.dens = dens

    def entry(self, i, j):
        return self.nums[i][j], self.dens[i]

    def entering(self, limit, banned, bland):
        row = self.nums[-1]
        candidates = [j for j in range(limit) if row[j] < 0 and not banned[j]]
        if not candidates:
            return None
        if bland:
            return candidates[0]
        return min(candidates, key=row.__getitem__)

    def column_signs(self, col, rows):
        return [self.nums[i][col] for i in range(rows)]

    def pivot(self, r, c):
        nums, dens = self.nums, self.dens
        p = nums[r][c]
        pivot_row = nums[r]
        for i in range(len(nums)):
            if i == r:
                continue
            a = nums[i][c]
            if a == 0:
                # Value-preserving scaling only; the row is already reduced.
                continue
            row = [x * p - a * y for x, y in zip(nums[i], pivot_row)]
            den = dens[i] * p
            g = math.gcd(den, *row) or 1
            nums[i] = [x // g for x in row]
            dens[i] = den // g
        g = math.gcd(p, *pivot_row) or 1
        nums[r] = [x // g for x in pivot_row]
        dens[r] = p // g

    def to_python(self):
        return self


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
    return _NumpyTableau(nums, np.ones(m + 1, np.int64))


def _phase_one(ids, m):
    """Run the phase-1 simplex; returns (slack_is_zero, witness dict col->Fraction)."""
    t = ids.shape[0]
    rhs = t + m
    tableau = _initial_tableau(ids, m)
    basis = list(range(t, t + m))
    banned = np.zeros(t + m, np.bool_)
    stalled = 0

    while True:
        entering = tableau.entering(t + m, banned, stalled >= _STALL_LIMIT)
        if entering is None:
            break
        col = tableau.column_signs(entering, m)
        leave_row = None
        best_num = best_den = None
        for i in range(m):
            a = int(col[i])
            if a <= 0:
                continue
            rn, _ = tableau.entry(i, rhs)
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
        try:
            tableau.pivot(leave_row, entering)
        except _Overflow:
            tableau = tableau.to_python()
            tableau.pivot(leave_row, entering)
        leaving = basis[leave_row]
        if leaving >= t:
            banned[leaving] = True
        basis[leave_row] = entering

    slack_num, _ = tableau.entry(m, rhs)
    if slack_num != 0:
        return False, None
    witness = {}
    for i in range(m):
        if basis[i] < t:
            rn, rd = tableau.entry(i, rhs)
            witness[basis[i]] = Fraction(rn, rd)
    return True, witness


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

    ids = triangle_edge_ids(g, triangles)
    feasible, witness = _phase_one(ids, g.m)
    if not feasible:
        return FeasibilityVerdict(False, None)

    d = Decomposition.from_entries(
        ((tri, witness.get(j, 0)) for j, tri in enumerate(triangles.tolist())), graph=g
    )
    if (d.numerators < 0).any():
        raise AssertionError("simplex produced a negative weight")
    # from_entries keeps every numerator sum within the numerators' dtype.
    sums = np.zeros(g.m, d.numerators.dtype)
    for column in ids.T:
        np.add.at(sums, column, d.numerators)
    if (sums != d.denominator).any():
        raise AssertionError("simplex witness does not cover every edge exactly")
    return FeasibilityVerdict(True, d)
