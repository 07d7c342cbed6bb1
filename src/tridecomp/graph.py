"""Dense immutable graphs with canonical edge ids and K4-link enumeration.

Vertices are 0..n-1. Edges are the canonical pairs (u, v) with u < v, sorted
lexicographically, and their position in that order is the edge id. Adjacency
is a boolean matrix, so common-neighbor queries are vectorized row
intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels
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
    degrees: np.ndarray
    deficiency: Fraction


def degree_stats(g):
    """Minimum degree, the per-vertex degrees, and the exact deficiency 1 - mindeg/n."""
    if g.n < 1:
        raise ValueError("degree statistics need at least one vertex")
    min_degree = int(g.degrees.min())
    return DegreeStats(min_degree, g.degrees, Fraction(g.n - min_degree, g.n))


def enumerate_triangles(g):
    """Every triangle once, as an (t, 3) int32 array with rows (a, b, c), a<b<c,
    sorted lexicographically."""
    return kernels.enumerate_triangle_array(g.adj, g.edge_u, g.edge_v)


@dataclass(frozen=True)
class LinkSet:
    """All rooted-K4 links of a graph, canonically ordered by (e1, e2)."""

    e1: np.ndarray
    e2: np.ndarray

    def __len__(self):
        return int(self.e1.shape[0])


def enumerate_rooted_k4_links(g, max_links=DEFAULT_MAX_LINKS, triangles=None):
    """One link per (K4, opposite-edge-pair); each K4 contributes exactly 3.

    Aborts with LinkLimitError instead of exhausting memory when the count
    would exceed `max_links` (link counts grow like n**4 on dense graphs).
    `triangles`, when given, is `enumerate_triangles(g)`.
    """
    if triangles is None:
        triangles = enumerate_triangles(g)
    result = kernels.enumerate_link_arrays(g.adj, g.eid, g.m, triangles, max_links)
    if result is None:
        raise LinkLimitError(max_links)
    e1, e2 = result
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
