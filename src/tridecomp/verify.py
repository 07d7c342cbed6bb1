"""Certificates and their independent checker.

Every weight set (from the flow, the LP oracle or a file) is one
`Decomposition`: integer numerators over one denominator, int64 when a bound
proven from the inputs keeps every value and partial sum below 2**62
(`_int_dtype`), object arrays of Python ints otherwise. A flow that falls
short yields a `CutCertificate`. This module also holds both text formats and
the decomposition parser, and imports no solver.

The verifier recomputes everything from the host graph and the claimed
triangles and weights, never from decomposer state. A list of pairs is first
brought exactly over the lcm of its denominators, and an edge passes when its
integer sum equals that denominator. Duplicate entries are summed; entries
that are not triangles of the graph are counted and left out of the sums.
Float mode is a tolerance on the same exact numbers, not a second code path.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputFormatError

# int64 arithmetic is used only where every value stays below this bound.
_INT64_LIMIT = 1 << 62


def _int_dtype(bound):
    """int64 when no value or partial sum reaches `bound`, else Python ints."""
    return np.int64 if bound < _INT64_LIMIT else object


@dataclass(eq=False)
class Decomposition:
    """Triangle weights as integer numerators over one shared denominator.

    Row i of `triangles`, an (t, 3) int array of rows a < b < c, has weight
    numerators[i] / denominator, exactly: int64 behind a proven bound, else
    Python ints. `solve`, `decompose` and `lp_feasible` return their rows in
    lexicographic order; a parsed decomposition keeps its file's order and
    any duplicate rows, which `verify` sums.
    """

    triangles: np.ndarray
    numerators: np.ndarray
    denominator: int
    # Set by solve(): the flow value that was required and reached.
    required_flow: Fraction | None = None

    @classmethod
    def from_entries(cls, entries):
        """(triangle, weight) pairs over the lcm of the weight denominators;
        Fraction(w) is exact for floats too. A triangle with a vertex id
        outside [0, 2**63) becomes (-1, -1, -1), which is no graph's triangle.
        """
        rows, weights = [], []
        for tri, w in entries:
            fits = 0 <= min(tri) and max(tri) < 1 << 63
            rows.append(tuple(tri) if fits else (-1, -1, -1))
            weights.append(Fraction(w))
        denominator = math.lcm(*(w.denominator for w in weights))
        numerators = [w.numerator * (denominator // w.denominator) for w in weights]
        dtype = _int_dtype(max(denominator, sum(map(abs, numerators))))
        triangles = np.array(rows, np.int64).reshape(-1, 3)
        return cls(triangles, np.array(numerators, dtype), denominator)

    @property
    def entries(self):
        """(triangle, Fraction) pairs."""
        d = self.denominator
        weights = [Fraction(x, d) for x in self.numerators.tolist()]
        return list(zip(map(tuple, self.triangles.tolist()), weights))


@dataclass(frozen=True)
class CutCertificate:
    """Witness that the maximum flow falls short of the required value.

    `source_side_edges` are the residual-graph edge ids whose network nodes
    sit on the supersource side of a minimum cut of capacity < required_flow.
    """

    source_side_edges: list
    cut_capacity: Fraction
    required_flow: Fraction


FLOAT_EDGE_TOLERANCE = 1e-9
FLOAT_WEIGHT_FLOOR = -1e-12


def _is_exact(mode):
    """Whether `mode` is "exact"; ValueError for any mode but "exact" and
    "float", so that a misspelt mode never loosens the check to float."""
    if mode not in ("exact", "float"):
        raise ValueError(f"mode {mode!r} is neither 'exact' nor 'float'")
    return mode == "exact"


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
    exact = _is_exact(mode)

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


def format_decomposition(d, mode="exact"):
    """Header, then one `a b c weight` line per row: reduced `p/q` weights,
    or, in float mode, correctly rounded floats summing left to right to the
    total. Each distinct weight and vertex is formatted once."""
    values, inverse = np.unique(d.numerators, return_inverse=True)
    inverse = inverse.ravel().tolist()
    den = d.denominator
    if _is_exact(mode):
        common = np.gcd(values, den)
        strings = [
            str(p) if q == 1 else f"{p}/{q}"
            for p, q in zip((values // common).tolist(), (den // common).tolist())
        ]
        total = str(Fraction(sum(d.numerators.tolist()), den))
    else:
        floats = [x / den for x in values.tolist()]
        strings = list(map(repr, floats))
        total = repr(sum(floats[i] for i in inverse))
    vertices, slots = np.unique(d.triangles, return_inverse=True)
    labels = list(map(str, vertices.tolist()))
    lines = [f"# triangles={len(inverse)} total={total}"]
    lines += [
        f"{labels[a]} {labels[b]} {labels[c]} {strings[i]}"
        for (a, b, c), i in zip(slots.reshape(-1, 3).tolist(), inverse)
    ]
    return "\n".join(lines) + "\n"


# Python's default limit on the digits of an int made from a string.
MAX_EXPONENT = 4300


def parse_fraction(text):
    """Fraction(text), but a decimal exponent beyond MAX_EXPONENT in magnitude
    is a ValueError: Fraction("1e10000000") spends seconds on a 10**7-digit int."""
    match = re.search(r"e[-+]?([\d_]+)\s*\Z", text, re.IGNORECASE)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    if len(digits) > 4 or int(digits or 0) > MAX_EXPONENT:
        raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
    return Fraction(text)


def parse_decomposition(text):
    """Read the decomposition text format, exactly; duplicate triangles are
    kept as-is (the verifier sums them)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputFormatError(f"line {lineno}: expected 'u v w weight'")
        try:
            a, b, c = int(parts[0]), int(parts[1]), int(parts[2])
            weight = parse_fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from exc
        if not a < b < c:
            raise InputFormatError(f"line {lineno}: vertices must be strictly increasing")
        entries.append(((a, b, c), weight))
    return Decomposition.from_entries(entries)


def format_cut_certificate(cert):
    header = (
        f"# INFEASIBLE-BY-FLOW M={cert.required_flow} cut={cert.cut_capacity}"
    )
    return "\n".join([header] + [str(e) for e in cert.source_side_edges]) + "\n"
