"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's enumeration and flow code:
triangles and K4s come from itertools scans, min cuts from exhaustive subset
enumeration. Expected values in the tests are computed (or were frozen) from
these, never from the code under test.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from tridecomp.graph import from_edge_list
from tridecomp.maxflow import ArcNetwork


def complete_pairs(n):
    return list(combinations(range(n), 2))


def make_graph(pairs, n):
    return from_edge_list(pairs, n)


def complete_graph(n):
    return make_graph(complete_pairs(n), n)


def complete_minus_edge(n, drop):
    pairs = [p for p in complete_pairs(n) if p != tuple(sorted(drop))]
    return make_graph(pairs, n)


def complete_minus_hamilton(n):
    cycle = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    pairs = [p for p in complete_pairs(n) if p not in cycle]
    return make_graph(pairs, n)


def brute_triangles(g):
    """All triangles by cubic scan, sorted."""
    out = []
    for a, b, c in combinations(range(g.n), 3):
        if g.adj[a, b] and g.adj[a, c] and g.adj[b, c]:
            out.append((a, b, c))
    return out


def brute_k4s(g):
    """All K4 vertex sets by quartic scan, sorted."""
    out = []
    for quad in combinations(range(g.n), 4):
        if all(g.adj[x, y] for x, y in combinations(quad, 2)):
            out.append(quad)
    return out


def brute_links(g):
    """Rooted-K4 links as sorted (e1, e2) edge-id pairs, from the K4 scan."""
    links = set()
    for a, b, c, d in brute_k4s(g):
        for (x1, y1), (x2, y2) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            i, j = g.edge_id(x1, y1), g.edge_id(x2, y2)
            links.add((min(i, j), max(i, j)))
    return sorted(links)


def brute_edge_triangle_count(g, u, v):
    return sum(
        1 for w in range(g.n) if w not in (u, v) and g.adj[u, w] and g.adj[v, w]
    )


def network_from_triples(num_nodes, triples, source, sink):
    """ArcNetwork from (tail, head, rational capacity) triples, the
    capacities scaled once by the lcm of their denominators."""
    caps = [Fraction(c) for _, _, c in triples]
    denominator = math.lcm(*(c.denominator for c in caps))
    return ArcNetwork.from_arcs(
        num_nodes,
        [t for t, _, _ in triples],
        [h for _, h, _ in triples],
        np.array([c.numerator * (denominator // c.denominator) for c in caps], dtype=object),
        source,
        sink,
        denominator,
    )


def brute_min_cut(num_nodes, tails, heads, caps, source, sink):
    """Minimum s-t cut capacity by enumerating every source-side subset."""
    others = [v for v in range(num_nodes) if v not in (source, sink)]
    best = None
    for mask in range(1 << len(others)):
        side = {source}
        for i, v in enumerate(others):
            if mask >> i & 1:
                side.add(v)
        cap = sum(
            c for t, h, c in zip(tails, heads, caps) if t in side and h not in side
        )
        if best is None or cap < best:
            best = cap
    return best


def reference_transfer(g, triangles, weight, links, net_flows):
    """Triangle weights after moving net_flows[i] (a Fraction) across link i.

    The per-link algorithm over a dict keyed by sorted vertex triples: start
    every triangle at `weight`, then for each link with e1 = (p, q) and
    e2 = (r, s) take f/2 from pqr and pqs and give it to rsp and rsq.
    """
    weights = {tuple(tri): weight for tri in triangles}
    for e1, e2, f in zip(links.e1.tolist(), links.e2.tolist(), net_flows):
        (p, q), (r, s) = g.endpoints(e1), g.endpoints(e2)
        for x in (r, s):
            weights[tuple(sorted((p, q, x)))] -= f / 2
        for x in (p, q):
            weights[tuple(sorted((r, s, x)))] += f / 2
    return weights


def edge_weight_sums(g, entries):
    """Per-edge incident weight sums of a decomposition, computed directly."""
    sums = {e: Fraction(0) for e in range(g.m)}
    for (a, b, c), w in entries:
        for x, y in ((a, b), (a, c), (b, c)):
            sums[g.edge_id(x, y)] += w
    return sums


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def k5_minus_edge():
    return complete_minus_edge(5, (3, 4))


def random_bitmask_graph(n, seed):
    """Deterministic small random graph from a counter-based bit stream."""
    pairs = []
    state = (seed * 0x9E3779B97F4A7C15 + 0x123456789) & (1 << 64) - 1
    for u, v in combinations(range(n), 2):
        state ^= (state << 13) & (1 << 64) - 1
        state ^= state >> 7
        state ^= (state << 17) & (1 << 64) - 1
        if state & 1:
            pairs.append((u, v))
    return make_graph(pairs, n)
