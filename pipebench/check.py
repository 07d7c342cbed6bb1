"""Independent checks of CLI outputs, written without the package under test.

Decompositions are re-summed per edge in exact rationals, cut certificates
are parsed and range-checked, and `oracle` verdicts are compared with a HiGHS
feasibility solve of the same edge/triangle system. Each check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

EXIT_OK = 0
EXIT_INFEASIBLE = 2

_CUT_HEADER = re.compile(r"# INFEASIBLE-BY-FLOW M=(\S+) cut=(\S+)$")


def check_decomposition(pairs, text):
    """Every edge's triangle weights sum to exactly 1, no weight is negative."""
    edges = {p: i for i, p in enumerate(pairs)}
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# triangles="):
        return "decomposition header missing"
    try:
        declared = int(lines[0].split()[1].split("=", 1)[1])
    except (IndexError, ValueError):
        return f"unparseable decomposition header {lines[0]!r}"
    # Exact sums as integer numerators over the lcm of all denominators.
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 4:
            return f"line {lineno}: expected 'a b c weight'"
        try:
            a, b, c = int(parts[0]), int(parts[1]), int(parts[2])
            w = Fraction(parts[3])
        except (ValueError, ZeroDivisionError):
            return f"line {lineno}: unparseable entry {line!r}"
        if w < 0:
            return f"line {lineno}: negative weight {w}"
        ids = (edges.get((a, b)), edges.get((a, c)), edges.get((b, c)))
        if not a < b < c or None in ids:
            return f"line {lineno}: ({a}, {b}, {c}) is not a triangle of the input"
        entries.append((ids, w))
    if declared != len(entries):
        return f"header declares {declared} triangles, file has {len(entries)}"
    denom = math.lcm(*(w.denominator for _, w in entries)) if entries else 1
    sums = [0] * len(pairs)
    for ids, w in entries:
        scaled = w.numerator * (denom // w.denominator)
        for e in ids:
            sums[e] += scaled
    for e, s in enumerate(sums):
        if s != denom:
            return f"edge {pairs[e]} sums to {Fraction(s, denom)}, not 1"
    return None


def check_cut_certificate(pairs, text):
    """Header parses with cut < M; every listed edge id is in range and unique."""
    lines = text.splitlines()
    match = _CUT_HEADER.match(lines[0]) if lines else None
    if match is None:
        return "cut certificate header missing or malformed"
    try:
        required, cut = Fraction(match.group(1)), Fraction(match.group(2))
        ids = [int(line) for line in lines[1:]]
    except (ValueError, ZeroDivisionError):
        return "cut certificate does not parse"
    if not 0 <= cut < required:
        return f"cut {cut} is not below M={required}"
    if any(not 0 <= e < len(pairs) for e in ids) or len(set(ids)) != len(ids):
        return "cut certificate lists an edge id out of range or twice"
    return None


def _triangles(n, pairs):
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return [(a, b, c) for a, b in pairs for c in sorted(adj[a] & adj[b]) if c > b]


def highs_feasible(n, pairs):
    """Whether non-negative triangle weights with every edge sum 1 exist, by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    tris = _triangles(n, pairs)
    if not pairs:
        return True
    if not tris:
        return False
    edge = {p: i for i, p in enumerate(pairs)}
    rows = [edge[p] for a, b, c in tris for p in ((a, b), (a, c), (b, c))]
    cols = [j for j in range(len(tris)) for _ in range(3)]
    incidence = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(pairs), len(tris)))
    res = linprog(
        np.zeros(len(tris)),
        A_eq=incidence,
        b_eq=np.ones(len(pairs)),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"HiGHS returned no verdict: {res.message}")


def check_output(command, exit_code, pairs, text, lp_verdict=None):
    """Check one CLI command's exit code and output file.

    `lp_verdict` is the HiGHS feasibility of the input, which an `oracle`
    verdict must match.
    """
    if command == "decompose":
        if exit_code == EXIT_OK:
            return check_decomposition(pairs, text)
        if exit_code == EXIT_INFEASIBLE:
            return check_cut_certificate(pairs, text)
        return f"unexpected exit code {exit_code}"
    if command == "oracle":
        if exit_code not in (EXIT_OK, EXIT_INFEASIBLE):
            return f"unexpected exit code {exit_code}"
        feasible = exit_code == EXIT_OK
        if feasible != lp_verdict:
            return f"oracle verdict feasible={feasible} disagrees with HiGHS"
        if feasible:
            return check_decomposition(pairs, text)
        return None if text == "INFEASIBLE\n" else "infeasible verdict without the INFEASIBLE line"
    raise ValueError(f"no check for command {command!r}")
