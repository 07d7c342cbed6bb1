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
those columns alone: a float inverse of G = A_S^T A_S proposes, an exact
integer bound on its residual proves full column rank, lifting steps add
bits of x from exact integer residuals, and x, reconstructed over one common
denominator, counts once A_S x = 1 holds in integers. It is a witness only
if x >= 0 and `verify` accepts it. In every other case (a float objective
above `_TOL`, `_FLOAT_PIVOTS` pivots used up, a refused rank proof, a tripped
overflow guard, an inconsistent or negative solve) the exact simplex runs
from scratch, so an INFEASIBLE verdict comes only from exact arithmetic.
When the float run ends on the exact run's final basis, both give the same
witness: B x_B = 1 with every basic artificial at 0 leaves A_S x_S = 1,
whose solution is unique.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LPSizeError
from .graph import enumerate_triangles, triangle_edge_ids
from .verify import _INT64_LIMIT, Decomposition, _int_dtype, verify

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

# Float64 holds every integer below 2^53, so integer sums stay exact below
# this bound (the exact solve's rank proof).
_FLOAT_EXACT = 1 << 52


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
    # max and -min read the arrays without the temporary np.abs would build.
    if nums.dtype != object and (
        max(nums.max(), -nums.min(), dens.max(), col.max(), -col.min()) >= _NUMPY_GUARD
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


def _inverse_residual(gram, scaled, shift):
    """|2^shift I - G R'| for the integer matrix R' = `scaled`, exact in
    float64; None unless 2^shift and every column sum of |R'| times max G
    are below 2^52, which keeps every product, partial sum and difference an
    integer below 2^53, whatever order BLAS sums in. G is non-negative."""
    if not (shift < 52 and np.abs(scaled).sum(axis=0).max() * gram.max() < _FLOAT_EXACT):
        return None
    residual = -(gram @ scaled)
    residual.flat[:: residual.shape[0] + 1] += 2.0**shift
    return np.abs(residual)


def _precision_bits(k, error):
    """Bits of D after which `_reconstruct` recovers x from N / D when
    A_S x = 1 and D |x - N / D| <= error. A_S has k independent rows A_R, and
    every column holds three ones, so by Hadamard's inequality the common
    denominator of x = A_R^-1 1 divides det A_R, of size at most
    H = sqrt(k 3^(k-1)); D > k 3^k error^2 keeps H and H error within
    `_reconstruct`'s bound B."""
    return (k * 3**k * error * error).bit_length()


def _reconstruct(numerators, shift):
    """Rationals near numerators / 2^shift over one common denominator, as
    (numerators, denominator); None once that denominator would pass
    B = isqrt((2^shift - 1) / 2). Each numerator, scaled by the denominator so
    far, is t 2^shift + r: within B of a multiple of 2^shift it reads as an
    integer, else the half-extended Euclid on (2^shift, r) stops at the first
    remainder r_1 <= B, where s r = u 2^shift + r_1, and t + u / s adds the
    factor s (Wang 1981). As 2 B^2 < 2^shift that fraction is the only one
    this close, so past `_precision_bits` the answer is x itself."""
    modulus = 1 << shift
    bound = math.isqrt((modulus - 1) // 2)
    values, den = [], 1
    for n in numerators:
        t, r = divmod(n * den, modulus)
        if modulus - r <= bound:
            t += 1
        elif r > bound:
            r0, r1, s0, s1 = modulus, r, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            if s1 * den > bound:
                return None
            values = [v * s1 for v in values]
            den *= s1
            t = t * s1 + (s1 * r - r1) // modulus
        values.append(t)
    return values, den


def _solve_on_columns(ids, m, columns):
    """Exact x with A_S x = 1 on the triangle columns S, as (numerators,
    denominators); None when A_S is rank-deficient, the system is
    inconsistent or some x_j < 0. Numeric-symbolic solve (Wan, J. Symbolic
    Comput. 2006) of G x = A_S^T 1 = 3 1, G = A_S^T A_S, which float64 holds
    exactly; floats only propose. R' = rint(2^s R), s = `shift`, for the
    float inverse R of G: when F = 2^s I - G R', computed exactly, has
    ||F||_inf < 2^s, then G R' is nonsingular, and so is G: A_S has full
    column rank and x is unique. Each lifting step sets
    y = rint(2^(sigma - s) R' r), r <- 2^sigma r - G y and
    N <- 2^sigma N + y, keeping D (x - N / D) = G^-1 r over D = 2^bits.
    The new r is 2^(sigma - s) F r plus G times y's rounding, so sigma with
    2^sigma ||F||_inf < 2^(s - 1) at least halves the residual carried
    over. N / D gives a candidate after steps 1, 2, 4, ... and once D passes
    `_precision_bits`, with ||G^-1||_inf <= ||R'||_inf / (2^s - ||F||_inf);
    it counts only once A_S x = 1 holds in integers."""
    k = len(columns)
    edges = ids[columns]
    a = np.zeros((m, k))
    a[edges, np.arange(k)[:, None]] = 1
    # Row j of G sums A_S's rows at j's three edges. A gather, because numpy
    # hands a.T @ a to BLAS syrk, whose threads stalled for milliseconds a
    # call on a busy machine.
    gram = a[edges[:, 0]] + a[edges[:, 1]] + a[edges[:, 2]]
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    # 2^shift times each column sum of |R| times max G is below 2^51, a bit
    # inside `_inverse_residual`'s bound.
    shift = 51 - math.frexp(np.abs(inverse).sum(axis=0).max() * gram.max())[1]
    scaled = np.rint(np.ldexp(inverse, shift))
    residual = _inverse_residual(gram, scaled, shift)
    if residual is None:
        return None
    norm = residual.sum(axis=1).max()
    # sigma >= 1 means ||F||_inf < 2^(s - 2), which is the rank proof too.
    sigma = shift - 1 - math.frexp(norm)[1]
    if sigma < 1:
        return None
    inverse_norm = np.abs(scaled).sum(axis=1).max() / (2.0**shift - norm)
    approximate = np.ldexp(scaled, sigma - shift)
    gram = gram.astype(np.int64)
    gram_norm = int(gram.sum(axis=1).max())
    r = np.full(k, 3, np.int64)
    numerators, bits = [0] * k, 0
    for count in itertools.count(1):
        y = np.rint(approximate @ r)
        # Every value below, G y's partial sums included, stays within
        # `_INT64_LIMIT`.
        if not np.abs(y).max() * gram_norm + (int(np.abs(r).max()) << sigma) < _INT64_LIMIT:
            return None
        y = y.astype(np.int64)
        r = (r << sigma) - gram @ y
        numerators = [(n << sigma) + v for n, v in zip(numerators, y.tolist())]
        bits += sigma
        error = int(inverse_norm * int(np.abs(r).max())) + 1
        last = bits >= _precision_bits(k, error)
        if last or count & (count - 1) == 0:
            found = _reconstruct(numerators, bits)
            if found is not None:
                x, den = found
                sums = np.zeros(m, object)
                np.add.at(sums, edges, np.array(x, object)[:, None])
                if (sums == den).all():
                    # A_S has full column rank, so x is the only solution.
                    if min(x) < 0:
                        return None
                    return np.array(x, object), np.full(k, den, object)
        if last:
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
