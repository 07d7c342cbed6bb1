"""Exact feasibility oracle: phase-1 simplex over the edge/triangle incidence.

Decides whether non-negative triangle weights exist whose sums over each edge
equal exactly 1, by minimizing the total artificial slack of A x + s = 1.

Fast path. `_float_basis` runs the phase-1 simplex below on a float64 copy of
the tableau, with the same pivot rules and ties decided within `_TOL`, and
returns the triangle columns S of its final basis. `_solve_on_columns` then
solves A_S x = 1 exactly on those columns alone, one exact pivot per column.
The result is a witness only if A_S has full column rank, the system is
consistent, x >= 0 and `verify` accepts it. In every other case (a float
objective above `_TOL`, `_FLOAT_PIVOTS` pivots used up, a singular,
inconsistent or negative solve) the exact simplex runs from scratch, so an
INFEASIBLE verdict comes only from exact arithmetic. When the float run ends
on the exact run's final basis, both give the same witness: B x_B = 1 with
every basic artificial at 0 leaves A_S x_S = 1, whose solution is unique.

Exact tableau. One pair of arrays: integer numerator rows `nums` and one
positive denominator per row `dens`, gcd-reduced after every pivot. There is
one pivot, `_pivot`. It runs on int64 while every entry and denominator is
below `_NUMPY_GUARD` = 2^31, so no cross product overflows; once the guard
trips, both arrays are promoted to object arrays of Python ints and the same
pivot continues on them. The phase-1 tableau is B^-1 [A | 1] over the
objective row, (m+1) x (t+1): the artificial columns are never stored.

Pivoting. The entering column is the one with the most negative objective-row
entry (the largest-coefficient rule), ties going to the smallest index; the
objective row shares one denominator, so its numerators compare as values.
The leaving row is the minimum-ratio row, ties going to the smallest basic
variable (artificials number after the triangles). A pivot is degenerate
when its winning ratio is 0. After `_STALL_LIMIT` consecutive degenerate
pivots the entering rule switches to Bland's smallest-index rule until the
next non-degenerate pivot.

Termination. A non-degenerate pivot strictly lowers the phase-1 objective,
which is a function of the basis, so no basis seen before it recurs after it,
and there are finitely many bases. An artificial that leaves the basis has no
column to re-enter by, so the set of basic artificials only shrinks, and
between two of its changes the problem is fixed. Inside one degenerate
stretch at most `_STALL_LIMIT` pivots use the largest-coefficient rule; the
rest use Bland's entering and leaving rules, which cannot cycle on a fixed
problem (Bland 1977, "New finite pivoting rules for the simplex method"). So
every stretch ends, and so does the whole run.
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

# Float phase: values within _TOL count as equal (ties, zero ratios, a zero
# objective), and the run gives up after _FLOAT_PIVOTS pivots, far above the
# runs measured (fewer pivots than triangles: 174 at t = 280, 2,154 at
# t = 2,415).
_TOL = 1e-9
_FLOAT_PIVOTS = 20_000


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


def _promoted(nums, dens):
    """The tableau as Python ints once an entry reaches `_NUMPY_GUARD`."""
    if nums.dtype != object:
        peak = max(int(np.abs(nums).max(initial=0)), int(dens.max(initial=1)))
        if peak >= _NUMPY_GUARD:
            return nums.astype(object), dens.astype(object)
    return nums, dens


def _initial_tableau(ids, m):
    """Phase-1 tableau [A | 1] over the objective row, from the (t, 3)
    triangle edge ids: one row per edge, one column per triangle, then the
    right-hand side."""
    t = ids.shape[0]
    nums = np.zeros((m + 1, t + 1), np.int64)
    nums[ids, np.arange(t)[:, None]] = 1
    nums[:m, -1] = 1
    # Minus the column sums: each triangle column holds three ones.
    nums[m, :t] = -3
    nums[m, -1] = -m
    return nums, np.ones(m + 1, np.int64)


def _float_basis(ids, m):
    """Triangle columns of the final basis of the phase-1 simplex run in
    float64, sorted; None when its objective ends above `_TOL`, no row can
    leave, or `_FLOAT_PIVOTS` pivots run out."""
    t = ids.shape[0]
    tab = _initial_tableau(ids, m)[0].astype(np.float64)
    basis = np.arange(t, t + m)
    stalled = 0
    for _ in range(_FLOAT_PIVOTS):
        objective = tab[m, :t]
        low = objective.min()
        if low >= -_TOL:
            return np.sort(basis[basis < t]) if tab[m, -1] >= -_TOL else None
        if stalled >= _STALL_LIMIT:
            entering = int(np.argmax(objective < -_TOL))
        else:
            entering = int(np.argmax(objective <= low + _TOL))
        column = tab[:m, entering]
        rows = np.flatnonzero(column > _TOL)
        if rows.size == 0:
            return None
        ratios = tab[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _TOL]
        leave_row = int(ties[np.argmin(basis[ties])])
        stalled = stalled + 1 if best <= _TOL else 0
        pivot_row = tab[leave_row] / tab[leave_row, entering]
        tab -= np.outer(tab[:, entering], pivot_row)
        tab[leave_row] = pivot_row
        basis[leave_row] = entering
    return None


def _solve_on_columns(ids, m, columns):
    """Exact x with A_S x = 1 on the triangle columns S, as (numerators,
    denominators); None when A_S is singular, the system is inconsistent or
    some x_j < 0. Column j is pivoted on the first unpivoted row where it is
    nonzero, that row negated first if the entry is negative."""
    nums, dens = _initial_tableau(ids[columns], m)
    free = np.ones(m + 1, np.bool_)
    free[m] = False
    pivot_rows = []
    for j in range(len(columns)):
        rows = np.flatnonzero(free & (nums[:, j] != 0))
        if rows.size == 0:
            return None
        r = int(rows[0])
        if nums[r, j] < 0:
            nums[r] = -nums[r]
        nums, dens = _promoted(nums, dens)
        _pivot(nums, dens, r, j)
        free[r] = False
        pivot_rows.append(r)
    rhs = nums[:, -1]
    if (rhs[free] != 0).any() or (rhs[pivot_rows] < 0).any():
        return None
    return rhs[pivot_rows], dens[pivot_rows]


def _phase_one(ids, m):
    """Run the exact phase-1 simplex; returns the final basis and (nums,
    dens). Basis entries t..t+m-1 are the artificials."""
    t = ids.shape[0]
    nums, dens = _initial_tableau(ids, m)
    basis = list(range(t, t + m))
    stalled = 0

    while True:
        objective = nums[m, :t]
        candidates = np.flatnonzero(objective < 0)
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
        nums, dens = _promoted(nums, dens)
        _pivot(nums, dens, leave_row, entering)
        basis[leave_row] = entering


def _witness(triangles, columns, rhs, den):
    """The decomposition with weight rhs[i] / den[i] on triangle columns[i]
    and 0 elsewhere, over the lcm of the reduced denominators."""
    common = np.gcd(rhs, den)
    values = list(zip((rhs // common).tolist(), (den // common).tolist()))
    denominator = math.lcm(*(q for _, q in values))
    scaled = [p * (denominator // q) for p, q in values]
    numerators = np.zeros(
        triangles.shape[0], _int_dtype(max(denominator, sum(map(abs, scaled))))
    )
    numerators[columns] = scaled
    return Decomposition(triangles, numerators, denominator)


def lp_feasible(g, max_triangles=DEFAULT_MAX_LP_TRIANGLES):
    """Decide fractional triangle decomposability exactly; witness on success.

    Solves the m x t feasibility system directly, independent of the flow
    method. Intended for small instances; instances with more than
    `max_triangles` triangles abort with LPSizeError.
    """
    if g.m == 0:
        return FeasibilityVerdict(True, Decomposition.from_entries([]))
    triangles = enumerate_triangles(g)
    t = int(triangles.shape[0])
    if t > max_triangles:
        raise LPSizeError(max_triangles, t)
    if t == 0:
        return FeasibilityVerdict(False, None)

    ids = triangle_edge_ids(g, triangles)
    columns = _float_basis(ids, g.m)
    solved = None if columns is None else _solve_on_columns(ids, g.m, columns)
    if solved is not None:
        d = _witness(triangles, columns, *solved)
        if verify(g, d).ok:
            return FeasibilityVerdict(True, d)

    basis, nums, dens = _phase_one(ids, g.m)
    if nums[-1, -1] != 0:
        return FeasibilityVerdict(False, None)
    # Basic triangle columns carry the values rhs_i / den_i; all others are 0.
    rows = [i for i, j in enumerate(basis) if j < t]
    d = _witness(triangles, [basis[i] for i in rows], nums[rows, -1], dens[rows])
    report = verify(g, d)
    if not report.ok:
        raise AssertionError(f"simplex witness failed to verify: {report}")
    return FeasibilityVerdict(True, d)
