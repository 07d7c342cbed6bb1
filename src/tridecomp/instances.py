"""Deterministic instance generators and edge-list text I/O.

Randomness comes from an explicitly specified xorshift64* generator so that a
GenSpec reproduces the identical graph on every platform; the platform RNG is
never used. The random-min-degree family takes the complement of a sparse
graph assembled from random partial matchings, which caps the complement
degree and therefore guarantees the minimum-degree target by construction
rather than by rejection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import GraphConstructionError, InputFormatError
from .graph import check_dense_size, from_edge_list

FAMILIES = (
    "complete",
    "complete-minus-hamilton",
    "complete-multipartite",
    "random-min-degree",
)

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* with the published constants (shifts 12, 25, 27; multiplier
    0x2545F4914F6CDD1D). The seed is mixed with 0x9E3779B97F4A7C15 and forced
    nonzero, so every 64-bit seed is valid."""

    _MULTIPLIER = 0x2545F4914F6CDD1D
    _SEED_MIX = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self.state = (int(seed) ^ self._SEED_MIX) & _MASK64 or self._SEED_MIX

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * self._MULTIPLIER) & _MASK64

    def randrange(self, bound):
        return self.next_u64() % bound

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


@dataclass(frozen=True)
class GenSpec:
    """Generator parameters; identical specs produce identical graphs."""

    family: str
    n: int = 0
    fraction: Fraction | None = None
    seed: int = 0
    parts: tuple | None = None


def _complete(n):
    return from_edge_list(combinations(range(n), 2), n)


def _complete_minus_hamilton(n):
    cycle = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    pairs = [p for p in combinations(range(n), 2) if p not in cycle]
    return from_edge_list(pairs, n)


def _complete_multipartite(parts):
    bounds = []
    start = 0
    for size in parts:
        bounds.append(range(start, start + size))
        start += size
    n = start
    pairs = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            pairs.extend((u, v) for u in bounds[i] for v in bounds[j])
    return from_edge_list(pairs, n)


def _random_min_degree(n, fraction, seed):
    # Cap the complement degree so every vertex keeps degree >= fraction * n.
    cap = n - 1 - math.ceil(fraction * n)
    removed = set()
    if cap > 0:
        rng = Xorshift64Star(seed)
        order = list(range(n))
        for _ in range(cap):
            rng.shuffle(order)
            for i in range(0, n - 1, 2):
                a, b = order[i], order[i + 1]
                removed.add((a, b) if a < b else (b, a))
    pairs = [p for p in combinations(range(n), 2) if p not in removed]
    return from_edge_list(pairs, n)


def generate(spec):
    """Build the graph a GenSpec describes; invalid parameters raise ValueError."""
    family = spec.family
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if family == "complete-multipartite":
        if not spec.parts or any(p < 1 for p in spec.parts) or len(spec.parts) < 2:
            raise ValueError("complete-multipartite needs at least two parts of size >= 1")
        check_dense_size(sum(spec.parts))
        return _complete_multipartite(tuple(spec.parts))
    if spec.n < 3:
        raise ValueError(f"family {family!r} needs n >= 3, got {spec.n}")
    check_dense_size(spec.n)
    if family == "complete":
        return _complete(spec.n)
    if family == "complete-minus-hamilton":
        return _complete_minus_hamilton(spec.n)
    fraction = spec.fraction
    if fraction is None or not 0 < fraction <= 1:
        raise ValueError(f"random-min-degree needs a fraction in (0, 1], got {fraction}")
    return _random_min_degree(spec.n, Fraction(fraction), spec.seed)


def write_edge_list(g):
    """Text form: header 'n m', then one 'u v' line per edge in id order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_pairs())
    return "\n".join(lines) + "\n"


def read_edge_list(text):
    """Parse the edge-list format; '#' lines are comments, pair order is
    canonicalized on read."""
    header = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise InputFormatError(f"line {lineno}: header must be 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise InputFormatError(f"line {lineno}: {exc}") from exc
            continue
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected 'u v'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise InputFormatError("missing 'n m' header line")
    n, m = header
    if len(pairs) != m:
        raise InputFormatError(f"header promises {m} edges, found {len(pairs)}")
    try:
        return from_edge_list(pairs, n)
    except GraphConstructionError as exc:
        raise InputFormatError(str(exc)) from exc
