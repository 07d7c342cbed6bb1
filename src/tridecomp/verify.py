"""Independent validation of claimed fractional triangle decompositions.

The verifier recomputes everything from the host graph and the claimed
triangles and weights, never from decomposer state. The weights are integer
numerators over one denominator (a list of pairs is first brought exactly
over the lcm), and an edge passes when its integer sum equals that
denominator. Duplicate entries are summed; entries that are not triangles of
the graph are counted and left out of the sums. Float mode is a tolerance on
the same exact numbers, not a second code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decompose import Decomposition, _int_dtype

FLOAT_EDGE_TOLERANCE = 1e-9
FLOAT_WEIGHT_FLOOR = -1e-12


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    worst_edge_deviation: object
    negative_weights: int
    invalid_triangles: int

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: worst edge deviation {self.worst_edge_deviation}, "
            f"{self.negative_weights} negative weights, "
            f"{self.invalid_triangles} invalid triangles"
        )


def verify(g, decomposition, mode="exact"):
    """Check a decomposition against its host graph.

    `decomposition` is a Decomposition or (triangle, weight) pairs. Passes iff
    every entry is a triangle of g, no weight is negative, and every edge's
    weights sum to exactly 1. Float mode allows FLOAT_EDGE_TOLERANCE and
    FLOAT_WEIGHT_FLOOR, compared exactly, and reports the deviation as a float.
    """
    if not isinstance(decomposition, Decomposition):
        decomposition = Decomposition.from_entries(list(decomposition))
    numerators = decomposition.numerators
    den = decomposition.denominator
    exact = mode == "exact"

    # A weight x/den is below the floor f exactly when x < ceil(f * den).
    floor = 0 if exact else math.ceil(Fraction(FLOAT_WEIGHT_FLOOR) * den)
    negatives = int(np.count_nonzero(numerators < floor))

    # Rows that are triangles of g: vertices in [0, n), a < b < c, and all
    # three pairs adjacent.
    a, b, c = decomposition.triangles.T
    valid = (0 <= a) & (a < b) & (b < c) & (c < g.n)
    a, b, c = a[valid], b[valid], c[valid]
    adj = g.adj
    triangle = adj[a, b] & adj[a, c] & adj[b, c]
    valid[valid] = triangle
    a, b, c = a[triangle], b[triangle], c[triangle]
    invalid = int(valid.size - np.count_nonzero(valid))

    weights = numerators[valid]
    # No edge sum exceeds the sum of the |numerators|.
    sums = np.zeros(g.m, _int_dtype(max(den, sum(map(abs, weights.tolist())))))
    weights = weights.astype(sums.dtype)
    for u, v in ((a, b), (a, c), (b, c)):
        np.add.at(sums, g.eid[u, v], weights)
    worst = Fraction(int(np.abs(sums - den).max(initial=0)), den)

    if exact:
        sums_ok = worst == 0
    else:
        sums_ok = worst <= Fraction(FLOAT_EDGE_TOLERANCE)
        try:
            worst = float(worst)
        except OverflowError:
            worst = math.inf
    return VerifyReport(
        ok=invalid == 0 and negatives == 0 and sums_ok,
        worst_edge_deviation=worst,
        negative_weights=negatives,
        invalid_triangles=invalid,
    )
