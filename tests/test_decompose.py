"""Decomposer pipeline: weights, network shape, transfers, full solves."""

import dataclasses
import importlib
import time
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp.decompose import (
    apply_transfer,
    build_network,
    decompose,
    initial_weight,
    solve,
)
from tridecomp.errors import (
    EdgeInNoTriangleError,
    EmptyGraphError,
    InputFormatError,
    RegimeWarning,
    UnknownTriangleError,
)
from tridecomp.graph import (
    LinkSet,
    degree_stats,
    enumerate_triangles,
    triangles_per_edge,
)
from tridecomp.maxflow import max_flow
from tridecomp.verify import (
    CutCertificate,
    Decomposition,
    format_cut_certificate,
    format_decomposition,
    parse_decomposition,
    verify,
)

from conftest import (
    brute_edge_triangle_count,
    brute_min_cut,
    brute_triangles,
    complete_graph,
    complete_minus_hamilton,
    make_graph,
    edge_weight_sums,
    reference_transfer,
)
from test_graph import graphs_strategy


class TestInitialWeight:
    def test_complete_graphs(self):
        # Uniform LP solution: each edge lies in n-2 triangles, so weight
        # 1/(n-2) sums to exactly 1; m/(3t) must agree.
        for n in (4, 5, 7, 9):
            g = complete_graph(n)
            w = initial_weight(g)
            assert w == Fraction(1, n - 2)
            assert w == Fraction(g.m, 3 * len(brute_triangles(g)))

    def test_k4(self, k4):
        assert initial_weight(k4) == Fraction(6, 12)

    def test_k5_minus_edge(self, k5_minus_edge):
        assert len(brute_triangles(k5_minus_edge)) == 7
        assert initial_weight(k5_minus_edge) == Fraction(9, 21)

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            initial_weight(make_graph([], 3))

    def test_edge_in_no_triangle(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        with pytest.raises(EdgeInNoTriangleError) as exc:
            initial_weight(g)
        assert exc.value.endpoints == (0, 1)


class TestBuildNetwork:
    def test_k4_is_balanced(self, k4):
        net = build_network(k4, initial_weight(k4), degree_stats(k4).deficiency)
        assert net.terminals.tolist() == [0] * k4.m
        assert net.required_flow == 0

    def test_complete_graphs_need_no_flow(self):
        for n in (5, 8):
            g = complete_graph(n)
            net = build_network(g, initial_weight(g), degree_stats(g).deficiency)
            assert net.required_flow == 0

    def test_k5_minus_edge_values(self, k5_minus_edge):
        g = k5_minus_edge
        stats = degree_stats(g)
        assert stats.deficiency == Fraction(2, 5)
        net = build_network(g, initial_weight(g), stats.deficiency)
        # Edges inside {0,1,2} carry 3 * 3/7 = 9/7, the six cross edges 6/7.
        # The link capacity is 2/21, so the shared denominator is 21.
        core = {g.edge_id(0, 1), g.edge_id(0, 2), g.edge_id(1, 2)}
        assert net.denominator == 21
        assert net.terminals.tolist() == [6 if e in core else -3 for e in range(g.m)]
        assert net.required_flow == Fraction(6, 7)
        assert net.link_capacity == 2
        assert len(net.links) == 6

    def test_bad_deficiency_rejected(self, k4):
        with pytest.raises(ValueError):
            build_network(k4, initial_weight(k4), Fraction(3, 2))

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy())
    def test_terminal_capacities_match_brute_force(self, g):
        brute = [brute_edge_triangle_count(g, *g.endpoints(e)) for e in range(g.m)]
        assert triangles_per_edge(g).tolist() == brute
        if sum(brute) == 0:
            return
        # sum(T_e) = 3t, so this is the uniform weight m/(3t); the deficiency
        # only scales the link capacity, which this test does not inspect.
        w = Fraction(g.m, sum(brute))
        net = build_network(g, w, Fraction(0))
        for e, te in enumerate(brute):
            assert Fraction(int(net.terminals[e]), net.denominator) == te * w - 1


class TestApplyTransfer:
    # Weights over 8, so flows are numerators over 4: a flow of 1 is 1/4.
    def _uniform_k4(self, k4, triangles=None):
        if triangles is None:
            triangles = enumerate_triangles(k4)
        nums = np.full(len(triangles), 4, np.int64)
        return Decomposition(triangles, nums, 8)

    def _links(self, k4, *pairs):
        e1 = [k4.edge_id(*a) for a, _ in pairs]
        e2 = [k4.edge_id(*b) for _, b in pairs]
        return LinkSet(np.array(e1, np.int32), np.array(e2, np.int32))

    def _edge_sums(self, k4, a):
        sums = edge_weight_sums(k4, a.entries)
        return {k4.endpoints(e): w for e, w in sums.items()}

    def test_quarter_transfer(self, k4):
        a = self._uniform_k4(k4)
        apply_transfer(k4, a, self._links(k4, ((0, 1), (2, 3))), [1])
        assert dict(a.entries) == {
            (0, 1, 2): Fraction(3, 8),
            (0, 1, 3): Fraction(3, 8),
            (0, 2, 3): Fraction(5, 8),
            (1, 2, 3): Fraction(5, 8),
        }
        # Direct recomputation of all six edge sums.
        sums = self._edge_sums(k4, a)
        assert sums[0, 1] == Fraction(3, 4)
        assert sums[2, 3] == Fraction(5, 4)
        for u, v in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert sums[u, v] == 1
        assert sum(w for _, w in a.entries) == 2

    def test_zero_transfer_is_identity(self, k4):
        a = self._uniform_k4(k4)
        before = a.entries
        apply_transfer(k4, a, self._links(k4, ((0, 1), (2, 3))), [0])
        assert a.entries == before

    def test_inverse_transfers_cancel(self, k4):
        # The same link twice in one call: both flows land on the same rows.
        a = self._uniform_k4(k4)
        before = a.entries
        pair = ((0, 2), (1, 3))
        apply_transfer(k4, a, self._links(k4, pair, pair), [1, -1])
        assert a.entries == before
        apply_transfer(k4, a, self._links(k4, pair), [1])
        apply_transfer(k4, a, self._links(k4, pair), [-1])
        assert a.entries == before

    def test_reverse_direction(self, k4):
        a = self._uniform_k4(k4)
        apply_transfer(k4, a, self._links(k4, ((0, 1), (2, 3))), [-1])
        sums = self._edge_sums(k4, a)
        assert sums[0, 1] == Fraction(5, 4)
        assert sums[2, 3] == Fraction(3, 4)

    def test_unknown_triangle(self, k4):
        triangles = enumerate_triangles(k4)[1:]  # drop (0, 1, 2)
        a = self._uniform_k4(k4, triangles)
        with pytest.raises(UnknownTriangleError):
            apply_transfer(k4, a, self._links(k4, ((0, 1), (2, 3))), [1])


class TestSolve:
    def test_k7_keeps_uniform_weights(self):
        g = complete_graph(7)
        assignment = solve(g, degree_stats(g).deficiency)
        assert isinstance(assignment, Decomposition)
        assert all(w == Fraction(1, 5) for _, w in assignment.entries)

    def test_k5_minus_edge_cut(self, k5_minus_edge):
        g = k5_minus_edge
        outcome = solve(g, degree_stats(g).deficiency)
        assert isinstance(outcome, CutCertificate)
        assert outcome.required_flow == Fraction(6, 7)
        assert outcome.cut_capacity < outcome.required_flow
        # Against exhaustive cut enumeration on the auxiliary network.
        net = build_network(g, initial_weight(g), degree_stats(g).deficiency)
        arcnet, _ = net.to_arc_network()
        expected = brute_min_cut(
            arcnet.num_nodes,
            arcnet.tails.tolist(),
            arcnet.heads.tolist(),
            arcnet.capacities.tolist(),
            arcnet.source,
            arcnet.sink,
        )
        assert outcome.cut_capacity == Fraction(expected, arcnet.denominator)

    def test_cut_certificate_capacity_recomputed(self, k5_minus_edge):
        # Recompute the certificate's capacity from its edge partition alone.
        g = k5_minus_edge
        stats = degree_stats(g)
        outcome = solve(g, stats.deficiency)
        net = build_network(g, initial_weight(g), stats.deficiency)
        side = set(outcome.source_side_edges)
        cap = 0
        for e, x in enumerate(net.terminals.tolist()):
            if (x > 0 and e not in side) or (x < 0 and e in side):
                cap += abs(x)
        for i in range(len(net.links)):
            crossing = (int(net.links.e1[i]) in side) != (int(net.links.e2[i]) in side)
            if crossing:
                cap += net.link_capacity
        assert Fraction(cap, net.denominator) == outcome.cut_capacity

    def test_hamilton_complement_redistributes(self):
        g = complete_minus_hamilton(20)
        stats = degree_stats(g)
        uniform = initial_weight(g)
        net = build_network(g, uniform, stats.deficiency)
        assert net.required_flow > 0
        assignment = solve(g, stats.deficiency)
        assert isinstance(assignment, Decomposition)
        assert assignment.required_flow == net.required_flow
        entries = assignment.entries
        assert sum(w for _, w in entries) == Fraction(g.m, 3)
        assert set(edge_weight_sums(g, entries).values()) == {1}
        assert all(w >= 0 for _, w in entries)

    def test_enumerates_triangles_once(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return enumerate_triangles(g)

        # The package attribute `tridecomp.decompose` is the function.
        module = importlib.import_module("tridecomp.decompose")
        monkeypatch.setattr(module, "enumerate_triangles", counting)
        # n=13 is the smallest n whose flow saturates, so solve runs to the
        # weight assignment instead of stopping at a cut certificate.
        g = complete_minus_hamilton(13)
        assignment = solve(g, degree_stats(g).deficiency)
        assert isinstance(assignment, Decomposition)
        assert len(calls) == 1

    def test_float_mode(self):
        # Float read-out: each weight is the repr of the correctly rounded
        # exact weight, and the total is their left-to-right float sum.
        g = complete_minus_hamilton(20)
        assignment = solve(g, degree_stats(g).deficiency)
        entries = assignment.entries
        floats = [float(w) for _, w in entries]
        text = format_decomposition(assignment, "float")
        assert text.splitlines() == [f"# triangles={len(entries)} total={sum(floats)!r}"] + [
            f"{a} {b} {c} {w!r}" for ((a, b, c), _), w in zip(entries, floats)
        ]
        assert verify(g, parse_decomposition(text), mode="float").ok

    def test_int64_guard_boundary(self, monkeypatch):
        # Numerators use int64 exactly when the bound start + 3(n-3)c, with
        # start the uniform numerator over 2D and c the link capacity over D,
        # stays below the limit; the bound holds on the result.
        g = complete_minus_hamilton(13)
        deficiency = degree_stats(g).deficiency
        w = initial_weight(g)
        net = build_network(g, w, deficiency)
        start = w * 2 * net.denominator
        assert start.denominator == 1
        bound = int(start) + 3 * (g.n - 3) * net.link_capacity
        # The package attribute `tridecomp.verify` is the function.
        module = importlib.import_module("tridecomp.verify")
        monkeypatch.setattr(module, "_INT64_LIMIT", bound)
        wide = solve(g, deficiency)
        assert wide.numerators.dtype == object
        monkeypatch.setattr(module, "_INT64_LIMIT", bound + 1)
        narrow = solve(g, deficiency)
        assert narrow.numerators.dtype == np.int64
        assert int(np.abs(narrow.numerators).max()) <= bound
        assert narrow.entries == wide.entries


def triangle_closed(g):
    """g minus, repeatedly, every edge that lies in no triangle."""
    while True:
        keep = triangles_per_edge(g) > 0
        if keep.all():
            return g
        g = make_graph(list(zip(g.edge_u[keep].tolist(), g.edge_v[keep].tolist())), g.n)


def closed_pair(h):
    """h and its complement, each triangle-closed; the complement of a small
    draw is dense enough for flows that saturate and move weight."""
    present = set(h.edge_pairs())
    complement = make_graph([p for p in combinations(range(h.n), 2) if p not in present], h.n)
    return [g for g in (triangle_closed(h), triangle_closed(complement)) if g.m]


def reference_solve(g, deficiency):
    """solve's weights by the per-link Fraction transfer, or None on a cut."""
    w = initial_weight(g)
    net = build_network(g, w, deficiency)
    arcnet, link_slots = net.to_arc_network()
    flow = max_flow(arcnet)
    if flow.value < net.required_flow:
        return None
    net_flows = [Fraction(f, flow.denominator) for f in flow.flows[link_slots].tolist()]
    links = LinkSet(arcnet.tails[link_slots], arcnet.heads[link_slots])
    return reference_transfer(g, enumerate_triangles(g).tolist(), w, links, net_flows)


def python_int_solve(g, deficiency):
    """solve with the int64 guard tripped, so every numerator is a Python int."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("tridecomp.verify"), "_INT64_LIMIT", 0)
        return solve(g, deficiency)


# The deficiency only sets the link capacity 2w/(3(1-d)n); values near 1
# give the wide links that let small graphs saturate.
DEFICIENCIES = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)])
HAMILTON_NS = range(7, 17)


class TestDifferential:
    """The vectorized transfer against the per-link Fraction reference, and
    the int64 numerators against the Python-int ones."""

    def _against_reference(self, g, deficiency):
        outcome = solve(g, deficiency)
        expected = reference_solve(g, deficiency)
        if expected is None:
            assert isinstance(outcome, CutCertificate)
        else:
            assert dict(outcome.entries) == expected

    def _against_python_ints(self, g, deficiency):
        outcome = solve(g, deficiency)
        wide = python_int_solve(g, deficiency)
        if isinstance(outcome, CutCertificate):
            assert wide == outcome
        else:
            assert outcome.numerators.dtype == np.int64
            assert wide.numerators.dtype == object
            assert wide.entries == outcome.entries

    @settings(max_examples=80, deadline=None)
    @given(graphs_strategy(max_n=12), DEFICIENCIES)
    def test_reference_random_graphs(self, h, deficiency):
        for g in closed_pair(h):
            self._against_reference(g, deficiency)

    @pytest.mark.parametrize("n", HAMILTON_NS)
    def test_reference_hamilton_complements(self, n):
        g = complete_minus_hamilton(n)
        self._against_reference(g, degree_stats(g).deficiency)

    @settings(max_examples=80, deadline=None)
    @given(graphs_strategy(max_n=12), DEFICIENCIES)
    def test_python_ints_random_graphs(self, h, deficiency):
        for g in closed_pair(h):
            self._against_python_ints(g, deficiency)

    @pytest.mark.parametrize("n", HAMILTON_NS)
    def test_python_ints_hamilton_complements(self, n):
        g = complete_minus_hamilton(n)
        self._against_python_ints(g, degree_stats(g).deficiency)


def test_decomposition_is_only_its_weights():
    fields = [f.name for f in dataclasses.fields(Decomposition)]
    assert fields == ["triangles", "numerators", "denominator", "required_flow"]


class TestDecompose:
    def test_k4(self, k4):
        d = decompose(k4)
        assert isinstance(d, Decomposition)
        assert d.entries == [
            ((0, 1, 2), Fraction(1, 2)),
            ((0, 1, 3), Fraction(1, 2)),
            ((0, 2, 3), Fraction(1, 2)),
            ((1, 2, 3), Fraction(1, 2)),
        ]
        assert verify(k4, d).ok

    def test_empty_graph(self):
        d = decompose(make_graph([], 4))
        assert d.entries == []

    def test_k5_minus_edge_returns_cut(self, k5_minus_edge):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            outcome = decompose(k5_minus_edge)
        assert isinstance(outcome, CutCertificate)

    def test_regime_warning(self, k5_minus_edge):
        with pytest.warns(RegimeWarning):
            decompose(k5_minus_edge)

    def test_no_warning_inside_regime(self):
        g = complete_graph(13)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            decompose(g)

    def test_peel_then_flow_merges(self):
        # K13 minus two edges at vertex 12: three triangles peel off and the
        # residual still redistributes, so the merged result must verify.
        skip = {(0, 12), (1, 12)}
        pairs = [p for p in combinations(range(13), 2) if p not in skip]
        g = make_graph(pairs, 13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            outcome = decompose(g)
        assert isinstance(outcome, Decomposition)
        assert verify(g, outcome).ok
        for tri in ((2, 3, 4), (5, 6, 7), (8, 9, 10)):
            assert (tri, Fraction(1)) in outcome.entries

    def test_pipeline_raises_when_peel_isolates_an_edge(self):
        # K5 plus a degree-2 pendant: peeling (0,1,2) leaves edge (0,5)
        # without any triangle, which the flow method reports as an error.
        pairs = list(combinations(range(5), 2)) + [(0, 5), (1, 5)]
        g = make_graph(pairs, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            with pytest.raises(EdgeInNoTriangleError):
                decompose(g)

    def test_instrumented_complete_runs(self):
        # The saturation and total-weight checks run on every solve.
        for n in (5, 7):
            d = decompose(complete_graph(n))
            assert verify(complete_graph(n), d).ok


class TestSerialization:
    def test_round_trip(self, k4):
        d = decompose(k4)
        text = format_decomposition(d)
        assert text.splitlines()[0] == "# triangles=4 total=2"
        parsed = parse_decomposition(text)
        assert parsed.entries == d.entries

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputFormatError):
            parse_decomposition("0 1 2\n")
        with pytest.raises(InputFormatError):
            parse_decomposition("2 1 0 1/2\n")
        with pytest.raises(InputFormatError):
            parse_decomposition("0 1 2 nope\n")

    def test_cut_certificate_format(self):
        cert = CutCertificate([0, 3], Fraction(4, 7), Fraction(6, 7))
        text = format_cut_certificate(cert)
        assert text == "# INFEASIBLE-BY-FLOW M=6/7 cut=4/7\n0\n3\n"

    def test_parse_decimal_weights(self):
        parsed = parse_decomposition("0 1 2 0.5\n")
        assert parsed.entries == [((0, 1, 2), Fraction(1, 2))]

    def test_parse_float_mode_tokens_exactly(self):
        parsed = parse_decomposition("0 1 2 1.5e-05\n0 1 3 5e-324\n0 2 3 1E4300\n")
        assert [w for _, w in parsed.entries] == [
            Fraction(15, 10**6),
            Fraction(5, 10**324),
            Fraction(10**4300),
        ]

    @pytest.mark.parametrize("token", ["1e99999999", "1e-4301", "2.5E+1_0000", "1e0000004301"])
    def test_parse_rejects_huge_exponents(self, token):
        start = time.perf_counter()
        with pytest.raises(InputFormatError, match="exceeds 4300 in magnitude"):
            parse_decomposition(f"0 1 2 {token}\n")
        assert time.perf_counter() - start < 1


def test_value_never_exceeds_required():
    # The supersource cut bounds every flow by M.
    for g in (complete_graph(6), complete_minus_hamilton(12)):
        stats = degree_stats(g)
        net = build_network(g, initial_weight(g), stats.deficiency)
        arcnet, _ = net.to_arc_network()
        assert max_flow(arcnet).value <= net.required_flow
