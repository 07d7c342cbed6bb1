"""Graph construction, degree statistics, and enumeration against brute force."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp import graph
from tridecomp.errors import GraphConstructionError, GraphSizeError, LinkLimitError
from tridecomp.graph import (
    DENSE_BYTES_PER_CELL,
    MAX_DENSE_BYTES,
    check_dense_size,
    degree_stats,
    enumerate_rooted_k4_links,
    enumerate_triangles,
    from_edge_list,
    triangle_edge_ids,
    triangles_per_edge,
)

from conftest import (
    brute_edge_triangle_count,
    brute_k4s,
    brute_links,
    brute_triangles,
    complete_graph,
    complete_minus_hamilton,
    make_graph,
    random_bitmask_graph,
)


def graphs_strategy(max_n=9):
    """Random small graphs as (n, edge bitmask) draws."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(combinations(range(n), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        return make_graph(chosen, n)

    return build()


class TestConstruction:
    def test_triangle_graph(self):
        g = make_graph([(0, 1), (1, 2), (0, 2)], 3)
        assert g.n == 3 and g.m == 3

    def test_duplicate_pairs_collapse(self):
        g = make_graph([(0, 1), (1, 0)], 2)
        assert g.m == 1

    def test_complete_graph_size(self):
        g = complete_graph(5)
        assert g.m == 10

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphConstructionError) as exc:
            make_graph([(0, 5)], 3)
        assert exc.value.pair == (0, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError):
            make_graph([(2, 2)], 3)

    def test_size_guardrail_boundary(self):
        largest = math.isqrt(MAX_DENSE_BYTES // DENSE_BYTES_PER_CELL)
        check_dense_size(largest)
        with pytest.raises(GraphSizeError):
            check_dense_size(largest + 1)

    def test_size_guardrail_fires_before_reading_pairs(self):
        def pairs():
            raise AssertionError("pairs were read before the size check")
            yield

        with pytest.raises(GraphSizeError):
            from_edge_list(pairs(), 200_000)

    def test_edge_ids_canonical(self):
        g = make_graph([(2, 1), (0, 2), (0, 1)], 3)
        assert g.edge_pairs() == [(0, 1), (0, 2), (1, 2)]
        assert g.edge_id(1, 0) == 0
        assert g.endpoints(2) == (1, 2)


class TestDegreeStats:
    def test_complete(self):
        stats = degree_stats(complete_graph(10))
        assert stats.min_degree == 9
        assert stats.deficiency == Fraction(1, 10)

    def test_hamilton_complement(self):
        stats = degree_stats(complete_minus_hamilton(20))
        assert stats.min_degree == 17
        assert stats.deficiency == Fraction(3, 20)

    def test_single_vertex(self):
        stats = degree_stats(make_graph([], 1))
        assert stats.min_degree == 0
        assert stats.deficiency == 1

    def test_handshake(self):
        g = random_bitmask_graph(12, seed=1)
        assert int(g.degrees.sum()) == 2 * g.m


def common_neighbors(g, u, v):
    """The third vertices of the enumerated triangles through edge (u, v)."""
    tris = enumerate_triangles(g)
    rows = (tris == u).any(axis=1) & (tris == v).any(axis=1)
    return sorted(set(tris[rows].ravel().tolist()) - {u, v})


class TestCommonNeighbors:
    """Triangle partners of an edge, from the enumerated triangles and T_e."""

    def test_complete(self, k5):
        assert common_neighbors(k5, 0, 1) == [2, 3, 4]
        assert triangles_per_edge(k5)[k5.edge_id(0, 1)] == 3

    def test_k5_minus_edge(self, k5_minus_edge):
        g = k5_minus_edge
        expected = brute_edge_triangle_count(g, 0, 1)
        assert expected == 3
        assert common_neighbors(g, 0, 1) == [2, 3, 4]
        assert triangles_per_edge(g)[g.edge_id(0, 1)] == expected

    def test_path_has_none(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        assert common_neighbors(g, 0, 1) == []
        assert triangles_per_edge(g).tolist() == [0, 0]

    def test_bad_edge_id(self, k4):
        with pytest.raises(KeyError):
            k4.edge_id(0, 0)
        with pytest.raises(IndexError):
            k4.endpoints(99)

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, 4), (4, 0)])
    def test_edge_id_outside_vertices(self, k4, u, v):
        # eid[-1] would be the last row: (-1, 0) is not edge (0, 3).
        with pytest.raises(KeyError):
            k4.edge_id(u, v)


class TestTriangles:
    def test_k4(self, k4):
        assert enumerate_triangles(k4).shape[0] == 4

    def test_k5_minus_edge(self, k5_minus_edge):
        tris = enumerate_triangles(k5_minus_edge)
        expected = brute_triangles(k5_minus_edge)
        assert len(expected) == 7
        assert [tuple(r) for r in tris.tolist()] == expected

    def test_triangle_free(self):
        g = make_graph([(i, (i + 1) % 6) for i in range(6)], 6)
        assert enumerate_triangles(g).shape[0] == 0

    def test_canonical_order_and_uniqueness(self):
        g = random_bitmask_graph(11, seed=7)
        tris = [tuple(r) for r in enumerate_triangles(g).tolist()]
        assert tris == sorted(set(tris))
        assert tris == brute_triangles(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy())
    def test_matches_brute_force(self, g):
        tris = [tuple(r) for r in enumerate_triangles(g).tolist()]
        assert tris == brute_triangles(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy())
    def test_incidence_identity(self, g):
        # Every triangle has 3 edges, so the per-edge counts sum to 3t.
        tris = enumerate_triangles(g)
        counts = triangles_per_edge(g, tris)
        assert int(counts.sum()) == 3 * tris.shape[0]


class TestLinks:
    def test_k4_three_pairings(self, k4):
        links = enumerate_rooted_k4_links(k4)
        got = list(zip(links.e1.tolist(), links.e2.tolist()))
        # K4 edge ids: 01->0 02->1 03->2 12->3 13->4 23->5.
        assert got == [(0, 5), (1, 4), (2, 3)]

    def test_k5(self, k5):
        links = enumerate_rooted_k4_links(k5)
        assert len(links) == 15
        assert sorted(zip(links.e1.tolist(), links.e2.tolist())) == brute_links(k5)

    def test_k5_minus_edge(self, k5_minus_edge):
        links = enumerate_rooted_k4_links(k5_minus_edge)
        assert len(links) == 6
        assert len(brute_k4s(k5_minus_edge)) == 2

    def test_three_links_per_k4(self):
        for seed in range(4):
            g = random_bitmask_graph(10, seed=seed)
            links = enumerate_rooted_k4_links(g)
            assert len(links) == 3 * len(brute_k4s(g))
            got = sorted(zip(links.e1.tolist(), links.e2.tolist()))
            assert got == brute_links(g)

    def test_brute_force_agreement_up_to_12(self):
        g = random_bitmask_graph(12, seed=11)
        links = enumerate_rooted_k4_links(g)
        assert sorted(zip(links.e1.tolist(), links.e2.tolist())) == brute_links(g)

    def test_endpoint_vertices_are_disjoint(self, k5):
        links = enumerate_rooted_k4_links(k5)
        e1, e2 = links.e1, links.e2
        vertices = np.stack([k5.edge_u[e1], k5.edge_v[e1], k5.edge_u[e2], k5.edge_v[e2]], axis=1)
        assert len(links) == 15
        for quad in vertices.tolist():
            assert len(set(quad)) == 4

    def test_guardrail(self, k5):
        with pytest.raises(LinkLimitError):
            enumerate_rooted_k4_links(k5, max_links=10)

    def test_guardrail_boundary(self, k5):
        # K5 has exactly 15 links; the cap is inclusive.
        assert len(enumerate_rooted_k4_links(k5, max_links=15)) == 15
        with pytest.raises(LinkLimitError):
            enumerate_rooted_k4_links(k5, max_links=14)

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(max_n=8))
    def test_matches_brute_force(self, g):
        links = enumerate_rooted_k4_links(g)
        assert sorted(zip(links.e1.tolist(), links.e2.tolist())) == brute_links(g)


def enumerations(g, rows=None, max_links=None):
    """Triangles and links of g as tuple lists, computed in blocks of `rows`
    rows (the module's block size when None); the links sorted, since they
    come out in the order they are found."""
    kwargs = {} if max_links is None else {"max_links": max_links}
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            # A block has _BLOCK_CELLS // n rows.
            mp.setattr(graph, "_BLOCK_CELLS", rows * g.n)
        triangles = enumerate_triangles(g)
        # Links from the triangle array and from the graph alone.
        from_triangles = enumerate_rooted_k4_links(g, triangles=triangles, **kwargs)
        alone = enumerate_rooted_k4_links(g, **kwargs)
    links = list(zip(from_triangles.e1.tolist(), from_triangles.e2.tolist()))
    assert links == list(zip(alone.e1.tolist(), alone.e2.tolist()))
    assert triangles.dtype == from_triangles.e1.dtype == from_triangles.e2.dtype == np.int32
    return [tuple(r) for r in triangles.tolist()], sorted(links)


BLOCK_ROWS = [None, 1, 7]


class TestBlockedEnumeration:
    """Blocked numpy enumeration against the itertools references, with
    block boundaries crossed: the triangles in values and order, the links
    as a multiset."""

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @settings(max_examples=40, deadline=None)
    @given(g=graphs_strategy(max_n=10))
    def test_matches_brute_force(self, rows, g):
        assert enumerations(g, rows) == (brute_triangles(g), brute_links(g))

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("n", [13, 20])
    def test_hamilton_complements(self, rows, n):
        g = complete_minus_hamilton(n)
        assert enumerations(g, rows) == (brute_triangles(g), brute_links(g))

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_cap_boundary(self, rows):
        g = complete_minus_hamilton(13)
        count = len(brute_links(g))
        assert len(enumerations(g, rows, max_links=count)[1]) == count
        with pytest.raises(LinkLimitError):
            enumerations(g, rows, max_links=count - 1)


class TestCountingBounds:
    def test_te_bounds_on_dense_graph(self):
        g = complete_minus_hamilton(20)
        stats = degree_stats(g)
        assert stats.deficiency < Fraction(1, 2)
        counts = triangles_per_edge(g)
        lower = g.n - 2 * stats.deficiency * g.n
        for te in counts.tolist():
            assert te >= lower
            assert te <= g.n - 2

    def test_k4_count_lower_bound(self):
        g = complete_minus_hamilton(14)
        stats = degree_stats(g)
        counts = triangles_per_edge(g)
        links = enumerate_rooted_k4_links(g)
        per_edge_k4 = np.bincount(
            np.concatenate([links.e1, links.e2]), minlength=g.m
        )
        dn = stats.deficiency * g.n
        for e in range(g.m):
            te = Fraction(int(counts[e]))
            assert per_edge_k4[e] >= te * (te - dn) / 2


def test_triangle_edge_ids(k4):
    tris = enumerate_triangles(k4)
    ids = triangle_edge_ids(k4, tris)
    assert ids.shape == (4, 3)
    # triangle (0,1,2) uses edges 01, 02, 12 = ids 0, 1, 3
    assert ids[0].tolist() == [0, 1, 3]
