"""Dense immutable graphs with canonical edge ids, and their triangle and
rooted-K4 link enumeration.

Vertices are 0..n-1. Edges are the canonical pairs (u, v) with u < v, sorted
lexicographically, and their position in that order is the edge id. Adjacency
is a boolean matrix, so common-neighbor queries are vectorized row
intersections.

The enumerations have no per-edge or per-triangle loop. Each is a sequence
of numpy passes over blocks of rows (edges for triangles, triangles for
links): one pass intersects the adjacency rows of a whole block and takes
the candidate vertices above the row's largest vertex from the resulting
(rows, n) bool mask. A block has max(1, `_BLOCK_CELLS` // n) rows, so its
mask holds at most `_BLOCK_CELLS` cells and it finds at most that many
triangles or K4s. Counting the masks, the int32 edge-id rows of a link
block, and the int64 indices and the keys of what it finds, a block's
temporaries stay below 84 bytes a cell, 22 MB. What is kept across blocks
is the output: 12 bytes a triangle, and one key per link, 4 bytes while
m**2 < 2**31 and 8 beyond, until division splits the keys into the two
endpoint arrays. Links are not sorted here: they come out in the order they
are found, and the CSR sort of the flow network is the one place they are
ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import GraphConstructionError, GraphSizeError, LinkLimitError

# One-shot CLI decompose peaks about 80 bytes a link above the 63 MiB of a
# small run on the scipy flow path (K70 minus a Hamilton cycle: 244 MiB at
# 2.29M links; K100 minus one: 833 MiB at 10.4M), near 2.4 GiB at this cap.
# The Python-int fallback takes 240-290 bytes a link (K70: 581 MiB; random-
# min-degree n=70 at 9/10: 511 MiB at 1.61M links), about 8 GiB at the cap.
DEFAULT_MAX_LINKS = 30_000_000

# A Graph holds n x n bool and int32 matrices, 5 bytes per cell. 14 bytes per
# cell is a conservative bound that puts the exit-4 boundary at n > 8757.
DENSE_BYTES_PER_CELL = 14
MAX_DENSE_BYTES = 1 << 30


class Graph:
    """Immutable simple undirected graph over vertices 0..n-1."""

    __slots__ = ("n", "adj", "edge_u", "edge_v", "eid", "degrees")

    def __init__(self, n, edge_u, edge_v):
        self.n = n
        self.edge_u = edge_u
        self.edge_v = edge_v
        adj = np.zeros((n, n), np.bool_)
        adj[edge_u, edge_v] = True
        adj[edge_v, edge_u] = True
        self.adj = adj
        eid = np.full((n, n), -1, np.int32)
        ids = np.arange(edge_u.shape[0], dtype=np.int32)
        eid[edge_u, edge_v] = ids
        eid[edge_v, edge_u] = ids
        self.eid = eid
        self.degrees = adj.sum(axis=1).astype(np.int64)
        for arr in (self.adj, self.edge_u, self.edge_v, self.eid, self.degrees):
            arr.setflags(write=False)

    @property
    def m(self):
        return int(self.edge_u.shape[0])

    def edge_id(self, u, v):
        # A negative index would wrap around to the last rows of `eid`.
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise KeyError(f"({u},{v}) is not an edge")
        e = int(self.eid[u, v])
        if e < 0:
            raise KeyError(f"({u},{v}) is not an edge")
        return e

    def endpoints(self, e):
        return int(self.edge_u[e]), int(self.edge_v[e])

    def edge_pairs(self):
        """Canonical (u, v) pairs in edge-id order."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def check_dense_size(n):
    """Raise GraphSizeError before a graph on n vertices allocates too much."""
    estimate = DENSE_BYTES_PER_CELL * n * n
    if estimate > MAX_DENSE_BYTES:
        raise GraphSizeError(n, estimate, MAX_DENSE_BYTES)


def from_edge_list(pairs, n):
    """Build a Graph from vertex pairs; duplicates collapse, loops are rejected."""
    if n < 0:
        raise GraphConstructionError(f"vertex count {n} is negative")
    check_dense_size(n)
    seen = set()
    for pair in pairs:
        u, v = pair
        u = int(u)
        v = int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(
                f"vertex pair ({u},{v}) out of range for n={n}", pair=(u, v)
            )
        if u == v:
            raise GraphConstructionError(f"self-loop ({u},{v}) rejected", pair=(u, v))
        seen.add((u, v) if u < v else (v, u))
    if seen:
        arr = np.array(sorted(seen), np.int32)
        edge_u, edge_v = arr[:, 0].copy(), arr[:, 1].copy()
    else:
        edge_u = np.empty(0, np.int32)
        edge_v = np.empty(0, np.int32)
    return Graph(n, edge_u, edge_v)


class DegreeStats(NamedTuple):
    min_degree: int
    deficiency: Fraction


def degree_stats(g):
    """Minimum degree and the exact deficiency 1 - mindeg/n."""
    if g.n < 1:
        raise ValueError("degree statistics need at least one vertex")
    min_degree = int(g.degrees.min())
    return DegreeStats(min_degree, Fraction(g.n - min_degree, g.n))


_BLOCK_CELLS = 1 << 18


def _blocks(count, n):
    """(start, stop) row ranges of at most `_BLOCK_CELLS` mask cells each."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    return [(start, min(start + rows, count)) for start in range(0, count, rows)]


def pair_keys(first, second, base):
    """One sortable key first * base + second per pair, for values in
    [0, base): int32 when base**2 fits, which sorts about three times as fast
    as int64 and takes half the memory, else int64."""
    dtype = np.int32 if base * base < 1 << 31 else np.int64
    keys = np.multiply(first, base, dtype=dtype)
    keys += second
    return keys


def enumerate_triangles(g):
    """Every triangle once, as an (t, 3) int32 array with rows (a, b, c), a<b<c,
    sorted lexicographically.

    Edge (u, v) with u < v pairs with every common neighbor w > v, so each
    triangle appears once; edges come in id order and w ascending.
    """
    vertices = np.arange(g.n)
    parts = [np.empty((0, 3), np.int32)]
    for start, stop in _blocks(g.m, g.n):
        u = g.edge_u[start:stop]
        v = g.edge_v[start:stop]
        common = g.adj[u] & g.adj[v]
        common &= vertices > v[:, None]
        row, w = np.nonzero(common)
        block = np.empty((row.size, 3), np.int32)
        block[:, 0] = u[row]
        block[:, 1] = v[row]
        block[:, 2] = w
        parts.append(block)
    return np.concatenate(parts)


@dataclass(frozen=True)
class LinkSet:
    """All rooted-K4 links of a graph as two int32 edge-id arrays, e1 < e2
    in every link, in the order `enumerate_rooted_k4_links` finds them (not
    sorted)."""

    e1: np.ndarray
    e2: np.ndarray

    def __len__(self):
        return int(self.e1.shape[0])


def enumerate_rooted_k4_links(g, max_links=DEFAULT_MAX_LINKS, triangles=None):
    """One link per (K4, opposite-edge-pair); each K4 contributes exactly 3.

    Triangle (a, b, c) with a < b < c pairs with every common neighbor d > c,
    so each K4 {a < b < c < d} appears once, and gives its three opposite
    pairs (ab, cd), (ac, bd), (ad, bc). Edge ids follow the lexicographic
    order of the pairs, so the first edge of each pair, which holds a, has
    the smaller id. The links come out block by block, each block's (ab, cd)
    links first, then its (ac, bd) and its (ad, bc) links. Aborts with LinkLimitError instead of
    exhausting memory when the count would exceed `max_links` (link counts
    grow like n**4 on dense graphs); the count is checked after every block,
    so at most one block past the cap is held. `triangles`, when given, is
    `enumerate_triangles(g)`.
    """
    if triangles is None:
        triangles = enumerate_triangles(g)
    n, m, adj, eid = g.n, g.m, g.adj, g.eid
    vertices = np.arange(n)
    # An empty key array of the right dtype, for graphs without a K4.
    parts = [pair_keys(np.empty(0, np.int32), 0, m)]
    count = 0
    for start, stop in _blocks(triangles.shape[0], n):
        a, b, c = triangles[start:stop].T
        common = adj[a] & adj[b]
        common &= adj[c]
        common &= vertices > c[:, None]
        # Cell row * n + d of the mask is K4 {a, b, c, d} of triangle row.
        cell = np.flatnonzero(common)
        count += 3 * cell.size
        if count > max_links:
            raise LinkLimitError(max_links)
        row = cell // n
        ad, bd, cd = (np.take(eid[x], cell) for x in (a, b, c))
        ab, ac, bc = eid[a, b][row], eid[a, c][row], eid[b, c][row]
        parts += [pair_keys(ab, cd, m), pair_keys(ac, bd, m), pair_keys(ad, bc, m)]
    keys = np.concatenate(parts)
    del parts
    # The quotient is e1; the keys become their remainders, e2, in place.
    e1 = np.floor_divide(keys, m).astype(np.int32, copy=False)
    e2 = np.remainder(keys, m, out=keys).astype(np.int32, copy=False)
    e1.setflags(write=False)
    e2.setflags(write=False)
    return LinkSet(e1, e2)


def triangle_edge_ids(g, triangles):
    """Edge ids (ab, ac, bc) for each triangle row, as an (t, 3) int32 array."""
    if triangles.shape[0] == 0:
        return np.empty((0, 3), np.int32)
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    out = np.empty(triangles.shape, np.int32)
    out[:, 0] = g.eid[a, b]
    out[:, 1] = g.eid[a, c]
    out[:, 2] = g.eid[b, c]
    return out


def triangles_per_edge(g, triangles=None):
    """T_e for every edge: the number of triangles containing it."""
    if triangles is None:
        triangles = enumerate_triangles(g)
    counts = np.zeros(g.m, np.int64)
    if triangles.shape[0]:
        ids = triangle_edge_ids(g, triangles)
        counts += np.bincount(ids.ravel(), minlength=g.m)
    return counts
