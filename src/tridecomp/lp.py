"""Exact feasibility oracle: phase-1 simplex over the edge/triangle incidence.

Decides whether non-negative triangle weights exist whose sums over each edge
equal exactly 1, by minimizing the total artificial slack of A x + s = 1.

Revised form. Both runs of the phase-1 simplex below, the float64 one and
the exact one, store only an (m+1) x (m+1) row transform M: every pivot is a
row operation, so the tableau is M [A | 1] over the objective row. M starts
as [[I, 1], [-1^T, -m]] (`_start_transform`); its last column holds the
right-hand side M 1 over the objective value, in the slot of the objective
row's own unit column, which no pivot changes. A triangle's column is the
sum of M's columns at its three edge ids and the objective row three gathers
from M's last row, so a pivot costs O(m^2 + t), not the O(m t) of a tableau
update (Dantzig & Orchard-Hays 1954). When the exact run ends, y = -M[m, :m]
is the phase-1 dual: y_ab + y_ac + y_bc <= 0 on every triangle and sum(y) is
the objective, so on an infeasible instance y is a Farkas vector.

Exact transform. One pair of arrays: integer numerator rows `nums` and one
positive denominator per row `dens`, gcd-reduced after every pivot. There is
one pivot, `_pivot`, handed the entering column. It runs on int64 while every
entry of the transform, every denominator and every entry of the entering
column is below `_NUMPY_GUARD` = 2^31, so no cross product overflows; the
column is a sum of three transform entries and can reach the guard on its
own, so the guard checks it too. Once the guard trips, all three are
promoted to object arrays of Python ints and the same pivot continues on
them.

Fast path. `_float_basis` runs the same simplex in float64, with the same
pivot rules and ties decided within `_TOL`, and returns the triangle columns
S of its final basis. `_solve_on_columns` then solves A_S x = 1 exactly on
those columns alone by Dixon's p-adic lifting: one forward elimination mod
the prime `_PRIME` picks |S| rows of A_S and proves its full column rank,
triangular solves mod p lift x digit by digit, and rational reconstruction
over one common denominator proposes x after each step, accepted only once
A_S x = 1 holds in integers. The result is a witness only if x >= 0 and
`verify` accepts it. In every other case (a float objective above `_TOL`,
`_FLOAT_PIVOTS` pivots used up, a rank deficit mod p, an inconsistent or
negative solve) the exact simplex runs from scratch, so an INFEASIBLE verdict
comes only from exact arithmetic. When the float run ends on the exact run's
final basis, both give the same witness: B x_B = 1 with every basic
artificial at 0 leaves A_S x_S = 1, whose solution is unique.

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
from operator import mul

import numpy as np

from .errors import LPSizeError
from .graph import enumerate_triangles, triangle_edge_ids
from .verify import Decomposition, _int_dtype, verify

DEFAULT_MAX_LP_TRIANGLES = 5000

# Entries below this bound cannot overflow int64 in one cross-multiplication.
_NUMPY_GUARD = 1 << 31

# Consecutive degenerate pivots allowed before Bland's entering rule takes over.
_STALL_LIMIT = 64

# Float phase: values within _TOL count as equal (ties, zero ratios, a zero
# objective), and the run gives up after _FLOAT_PIVOTS pivots, far above the
# runs measured (fewer pivots than triangles: 174-189 at t = 280, 2,154 at
# t = 2,415, 5,483 at t = 5,582). A revised pivot costs O(m^2 + t): at
# t = 2,415 (m = 368) about 0.3 ms, against 2.4 ms for the tableau update.
_TOL = 1e-9
_FLOAT_PIVOTS = 20_000

# The prime of the exact solve's modular arithmetic, 2^25 - 39.
_PRIME = 33_554_393


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    decomposition: Decomposition | None

    def __bool__(self):
        return self.feasible


def _start_transform(m, dtype):
    """The row transform before the first pivot, [[I, 1], [-1^T, -m]]."""
    transform = np.eye(m + 1, dtype=dtype)
    transform[:m, m] = 1
    transform[m] = -1
    transform[m, m] = -m
    return transform


def _pivot(nums, dens, r, col):
    """Pivot in place on row r of the entering column `col`, whose entry
    there is positive: row i becomes (p * row_i - col_i * row_r) / (p * den_i),
    then every row is gcd-reduced. Runs unchanged on int64 and on object
    arrays of Python ints."""
    p = col[r]
    pivot_row = nums[r].copy()
    nums *= p
    nums -= col[:, None] * pivot_row
    nums[r] = pivot_row
    dens *= p
    dens[r] = p
    # np.gcd is never negative, and dens > 0 keeps every g >= 1.
    g = np.gcd(np.gcd.reduce(nums, axis=1), dens)
    nums //= g[:, None]
    dens //= g


def _promoted(nums, dens, col):
    """The transform and the entering column as Python ints once an entry of
    any of them reaches `_NUMPY_GUARD`."""
    if nums.dtype != object and (
        max(np.abs(nums).max(), dens.max(), np.abs(col).max()) >= _NUMPY_GUARD
    ):
        return nums.astype(object), dens.astype(object), col.astype(object)
    return nums, dens, col


def _float_basis(ids, m):
    """Triangle columns of the final basis of the phase-1 simplex run in
    float64, sorted; None when its objective ends above `_TOL`, no row can
    leave, or `_FLOAT_PIVOTS` pivots run out. Revised form (module
    docstring): only the row transform M is pivoted."""
    t = ids.shape[0]
    a, b, c = ids.T.copy()
    edges = ids.tolist()
    transform = _start_transform(m, np.float64)
    # Views, so they follow the pivots as long as M is updated in place.
    objective_row, rhs = transform[m], transform[:m, m]
    basis = np.arange(t, t + m)
    ratios = np.empty(m)
    stalled = 0
    for _ in range(_FLOAT_PIVOTS):
        objective = objective_row[a]
        objective += objective_row[b]
        objective += objective_row[c]
        # On arrays this small, indexing at argmin costs a third of .min().
        low = objective[objective.argmin()]
        if low >= -_TOL:
            return np.sort(basis[basis < t]) if objective_row[m] >= -_TOL else None
        if stalled >= _STALL_LIMIT:
            entering = int((objective < -_TOL).argmax())
        else:
            entering = int((objective <= low + _TOL).argmax())
        i, j, k = edges[entering]
        column = transform[:, i] + transform[:, j]
        column += transform[:, k]
        # The ratio of each row whose column entry exceeds _TOL, inf elsewhere.
        ratios.fill(np.inf)
        np.divide(rhs, column[:m], out=ratios, where=column[:m] > _TOL)
        best = ratios[ratios.argmin()]
        if best == np.inf:
            return None
        ties = (ratios <= best + _TOL).nonzero()[0]
        leave_row = int(ties[basis[ties].argmin()])
        stalled = stalled + 1 if best <= _TOL else 0
        pivot_row = transform[leave_row] / column[leave_row]
        transform -= column[:, None] * pivot_row
        transform[leave_row] = pivot_row
        basis[leave_row] = entering
    return None


def _eliminate(a):
    """Forward elimination of the (m, k) int64 0/1 matrix `a` mod `_PRIME`,
    in place. Column j pivots on the first row not pivoted yet whose entry is
    nonzero; returns these rows in column order, or None when some column has
    none, that is when `a` has rank below k mod p. Afterwards row pivots[j]
    holds U's row j from column j on and, before it, L's multipliers: a[pivots]
    packs L U = A_R mod p, A_R being the pivot rows of the input and L unit
    lower triangular."""
    m, k = a.shape
    free = np.ones(m, np.bool_)
    pivots = []
    for j in range(k):
        rows = (a[:, j] * free).nonzero()[0]
        if rows.size == 0:
            return None
        r = int(rows[0])
        free[r] = False
        pivots.append(r)
        if rows.size > 1:
            rows = rows[1:]
            block = a[rows, j:]
            # Entries are residues below p < 2^25, so l * a[r] < 2^50 and the
            # difference stays far inside int64.
            l = block[:, 0] * pow(int(a[r, j]), -1, _PRIME) % _PRIME
            block[:, 1:] -= l[:, None] * a[r, j + 1 :]
            block[:, 1:] %= _PRIME
            block[:, 0] = l
            a[rows, j:] = block
    return pivots


def _sparse_rows(a):
    """Each row of the 2-D array `a` as (column indices, values), Python lists."""
    rows, cols = np.nonzero(a)
    ends = np.cumsum(np.bincount(rows, minlength=a.shape[0])).tolist()
    cols, vals = cols.tolist(), a[rows, cols].tolist()
    return [(cols[s:e], vals[s:e]) for s, e in zip([0] + ends, ends)]


def _dot(row, y):
    """The sum of values[i] * y[columns[i]] over a sparse row (columns, values)."""
    cols, vals = row
    return sum(map(mul, vals, map(y.__getitem__, cols)))


def _lift_steps(k):
    """The lifting steps s with p^s > k 3^k. Every column of A_R holds at most
    three ones, so by Hadamard's inequality |det A_R| and each numerator of
    x = A_R^-1 1 by Cramer's rule are at most H = sqrt(k 3^(k-1)); as
    k 3^k > 2 H^2, reconstruction mod p^s recovers x."""
    steps, power, bound = 1, _PRIME, k * 3**k
    while power <= bound:
        steps, power = steps + 1, power * _PRIME
    return steps


def _reconstruct(residues, modulus):
    """Rationals congruent to `residues` mod `modulus` over one common
    denominator, as (numerators, denominator); None once that denominator
    would pass B = isqrt(modulus / 2). Each residue is first scaled by the
    denominator found so far, so it reads as an integer within B unless it
    adds a factor, which the half-extended Euclid finds (Wang 1981). As
    2 B^2 < modulus, a fraction with numerator and denominator within B is the
    only one for its residue, so past `_lift_steps` the answer is x itself."""
    bound = math.isqrt(modulus // 2)
    numerators, den = [], 1
    for v in residues:
        v = v * den % modulus
        if modulus - v <= bound:
            v -= modulus
        elif v > bound:
            r0, r1, s0, s1 = modulus, v, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            if s1 * den > bound:
                return None
            numerators = [u * s1 for u in numerators]
            den *= s1
            v = r1
        numerators.append(v)
    return numerators, den


def _solve_on_columns(ids, m, columns):
    """Exact x with A_S x = 1 on the triangle columns S, as (numerators,
    denominators); None when A_S is singular, the system is inconsistent or
    some x_j < 0. Dixon's p-adic lifting (Numer. Math. 1982): `_eliminate`
    picks k rows A_R with A_R invertible mod p, which proves A_S has full
    column rank; each step solves A_R y = r mod p with the factors and sets
    r <- (r - A_R y) / p, so that x = sum_i y_i p^i mod p^s after s steps."""
    k = len(columns)
    a = np.zeros((m, k), np.int64)
    a[ids[columns], np.arange(k)[:, None]] = 1
    edge_columns = [cols for cols, _ in _sparse_rows(a)]
    pivots = _eliminate(a)
    if pivots is None:
        return None
    lu = a[pivots]
    lower, upper = _sparse_rows(np.tril(lu, -1)), _sparse_rows(np.triu(lu, 1))
    p = _PRIME
    inverse_diagonal = [pow(d, -1, p) for d in np.diagonal(lu).tolist()]
    # Python ints from here on; each r_i stays within [-k, 1], since A_R is
    # 0/1 with at most k ones a row and y < p.
    r, x, modulus = [1] * k, [0] * k, 1
    for _ in range(_lift_steps(k)):
        y = []
        for r_i, row in zip(r, lower):
            y.append((r_i - _dot(row, y)) % p)
        for i in reversed(range(k)):
            y[i] = (y[i] - _dot(upper[i], y)) * inverse_diagonal[i] % p
        r = [(r_i - sum(map(y.__getitem__, edge_columns[e]))) // p for r_i, e in zip(r, pivots)]
        x = [x_j + y_j * modulus for x_j, y_j in zip(x, y)]
        modulus *= p
        found = _reconstruct(x, modulus)
        if found is None:
            continue
        numerators, den = found
        sums = [sum(map(numerators.__getitem__, cols)) for cols in edge_columns]
        if any(sums[e] != den for e in pivots):
            continue
        # A_R x = 1 holds exactly, and A_R is nonsingular: x is the only
        # candidate, so A_S x = 1 and x >= 0 decide.
        if any(s != den for s in sums) or min(numerators, default=0) < 0:
            return None
        return np.array(numerators, object), np.full(k, den, object)
    return None


def _phase_one(ids, m):
    """Run the exact phase-1 simplex in revised form; returns the final basis
    and the transform (nums, dens), whose last column is the right-hand side
    over the objective value. Basis entries t..t+m-1 are the artificials."""
    t = ids.shape[0]
    edge_ids = ids.T.copy()
    edges = ids.tolist()
    nums = _start_transform(m, np.int64)
    dens = np.ones(m + 1, np.int64)
    basis = list(range(t, t + m))
    stalled = 0

    while True:
        objective = nums[m][edge_ids].sum(axis=0)
        candidates = np.flatnonzero(objective < 0)
        if candidates.size == 0:
            return basis, nums, dens
        if stalled >= _STALL_LIMIT:
            entering = int(candidates[0])
        else:
            entering = int(candidates[np.argmin(objective[candidates])])
        i, j, k = edges[entering]
        column = nums[:, i] + nums[:, j]
        column += nums[:, k]
        rows = np.flatnonzero(column[:m] > 0)
        leave_row = None
        best_num = best_den = None
        for i, a, rn in zip(rows.tolist(), column[rows].tolist(), nums[rows, m].tolist()):
            # Ratios share the row denominator with the column entry, so the
            # comparison rhs_i/a_i < rhs_k/a_k is the integer cross product.
            if leave_row is None or rn * best_den < best_num * a or (
                rn * best_den == best_num * a and basis[i] < basis[leave_row]
            ):
                leave_row = i
                best_num, best_den = rn, a
        if leave_row is None:
            raise AssertionError("phase-1 objective is bounded; no pivot row found")
        stalled = stalled + 1 if best_num == 0 else 0
        nums, dens, column = _promoted(nums, dens, column)
        _pivot(nums, dens, leave_row, column)
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
