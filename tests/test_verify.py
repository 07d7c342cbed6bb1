"""Verifier behavior: exact sums, negativity, invalid keys, duplicates, modes."""

import importlib
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp.verify import (
    FLOAT_EDGE_TOLERANCE,
    FLOAT_WEIGHT_FLOOR,
    Decomposition,
    format_decomposition,
    parse_decomposition,
    verify,
)

from conftest import brute_triangles, complete_graph, edge_weight_sums, make_graph
from test_graph import graphs_strategy


def uniform_k4_entries(w):
    return [
        ((0, 1, 2), w),
        ((0, 1, 3), w),
        ((0, 2, 3), w),
        ((1, 2, 3), w),
    ]


class TestExactMode:
    def test_k4_uniform_half_passes(self, k4):
        report = verify(k4, uniform_k4_entries(Fraction(1, 2)))
        assert report.ok
        assert report.worst_edge_deviation == 0

    def test_k4_uniform_third_fails(self, k4):
        report = verify(k4, uniform_k4_entries(Fraction(1, 3)))
        assert not report.ok
        assert report.worst_edge_deviation == Fraction(1, 3)

    def test_negative_weight_fails_despite_sums(self, k4):
        entries = [
            ((0, 1, 2), Fraction(1)),
            ((0, 1, 3), Fraction(-1, 2)),
            ((0, 2, 3), Fraction(1, 2)),
            ((1, 2, 3), Fraction(1, 2)),
        ]
        # Tweak so sums stay broken anyway; negativity alone must be flagged.
        report = verify(k4, entries)
        assert not report.ok
        assert report.negative_weights == 1

    def test_non_triangle_key_counted(self, k4):
        entries = uniform_k4_entries(Fraction(1, 2)) + [((0, 1, 9), Fraction(0))]
        report = verify(k4, entries)
        assert not report.ok
        assert report.invalid_triangles == 1

    def test_missing_edge_detected(self, k5):
        # Covers only the triangles through vertex 0: edges inside {1..4} get
        # partial sums.
        entries = [
            (tuple(sorted((0, a, b))), Fraction(1, 3))
            for a in range(1, 5)
            for b in range(a + 1, 5)
        ]
        report = verify(k5, entries)
        assert not report.ok

    def test_duplicates_summed(self, k4):
        entries = uniform_k4_entries(Fraction(1, 4)) + uniform_k4_entries(Fraction(1, 4))
        assert verify(k4, entries).ok

    def test_parsed_rows_keep_file_order(self, k4):
        # Unsorted rows and a duplicate of (0, 1, 2): parsing keeps both in
        # file order, and verify sums the two quarters.
        d = parse_decomposition("1 2 3 1/2\n0 2 3 1/2\n0 1 2 1/4\n0 1 3 1/2\n0 1 2 1/4\n")
        assert d.triangles.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 2], [0, 1, 3], [0, 1, 2]]
        assert d.numerators.tolist() == [2, 2, 1, 2, 1]
        assert d.denominator == 4
        assert verify(k4, d).ok

    def test_order_independent(self, k5):
        from tridecomp.decompose import decompose

        d = decompose(k5)
        shuffled = list(d.entries)
        random.Random(5).shuffle(shuffled)
        assert verify(k5, shuffled).ok == verify(k5, d).ok is True

    def test_empty_graph_empty_decomposition(self):
        assert verify(make_graph([], 3), []).ok


class TestFloatMode:
    def test_within_tolerance(self, k4):
        report = verify(k4, uniform_k4_entries(0.5 + 1e-13), mode="float")
        assert report.ok

    def test_beyond_tolerance(self, k4):
        report = verify(k4, uniform_k4_entries(0.5 + 1e-6), mode="float")
        assert not report.ok

    def test_tiny_negative_tolerated(self, k4):
        entries = uniform_k4_entries(0.5)
        entries.append(((0, 1, 2), -1e-13))
        entries.append(((0, 1, 2), 1e-13))
        report = verify(k4, entries, mode="float")
        assert report.negative_weights == 0

    def test_real_negative_flagged(self, k4):
        entries = uniform_k4_entries(0.5) + [((0, 1, 2), -1e-6), ((0, 1, 2), 1e-6)]
        report = verify(k4, entries, mode="float")
        assert report.negative_weights == 1


@pytest.mark.parametrize("mode", ["Exact", ""])
def test_unknown_mode_rejected(k4, mode):
    # Float tolerance would pass this decomposition; exact mode fails it.
    entries = uniform_k4_entries(Fraction(1, 2))
    entries[0] = (entries[0][0], Fraction(1, 2) + Fraction(1, 10**12))
    assert not verify(k4, entries).ok and verify(k4, entries, mode="float").ok
    with pytest.raises(ValueError, match="neither 'exact' nor 'float'"):
        verify(k4, entries, mode=mode)
    with pytest.raises(ValueError, match="neither 'exact' nor 'float'"):
        format_decomposition(Decomposition.from_entries(entries), mode)


def test_report_string(k4):
    assert "PASS" in str(verify(k4, uniform_k4_entries(Fraction(1, 2))))
    assert "FAIL" in str(verify(k4, uniform_k4_entries(Fraction(1, 3))))


def reference_report(g, entries, mode):
    """(ok, deviation, negatives, invalid) by Fraction sums over the entries
    that are triangles of g, found by a direct scan."""
    triangles = set(brute_triangles(g))
    valid = [(tri, Fraction(w)) for tri, w in entries if tuple(tri) in triangles]
    invalid = len(entries) - len(valid)
    sums = edge_weight_sums(g, valid).values()
    worst = max((abs(s - 1) for s in sums), default=Fraction(0))
    exact = mode == "exact"
    floor = Fraction(0) if exact else Fraction(FLOAT_WEIGHT_FLOOR)
    negatives = sum(1 for _, w in entries if Fraction(w) < floor)
    sums_ok = worst == 0 if exact else worst <= Fraction(FLOAT_EDGE_TOLERANCE)
    ok = sums_ok and invalid == 0 and negatives == 0
    return ok, worst if exact else float(worst), negatives, invalid


# Small denominators mix; those above 2**62 force the object-array sums.
DENOMINATORS = st.sampled_from([1, 2, 3, 7, 12, (1 << 62) + 1, (1 << 64) - 59])
WEIGHTS = st.one_of(
    st.builds(Fraction, st.integers(-3, 12), DENOMINATORS),
    st.sampled_from([0, 1, 0.5, -1e-13, 1e-10, 0.1]),
)
BAD_IDS = st.sampled_from([-1, -(1 << 70), 1 << 63, 10**23])


@st.composite
def claimed_entries(draw):
    """A graph and entries: its triangles (some repeated), plus invalid
    triples, with mixed weights; half the draws start from an exact
    decomposition of a complete graph split into duplicate pieces."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 7))
        g = complete_graph(n)
        entries = []
        for tri in brute_triangles(g):
            piece = Fraction(draw(st.integers(0, 5)), draw(DENOMINATORS))
            entries += [(tri, piece), (tri, Fraction(1, n - 2) - piece)]
    else:
        g = draw(graphs_strategy(max_n=7))
        tris = brute_triangles(g)
        picks = draw(st.lists(st.sampled_from(tris), max_size=12)) if tris else []
        entries = [(tri, draw(WEIGHTS)) for tri in picks]
    triples = [
        st.tuples(*[st.integers(-1, g.n + 1)] * 3),
        st.tuples(st.integers(0, 2), st.integers(3, 5), BAD_IDS),
    ]
    if g.n >= 3:
        # Ordered vertex triples of g, most of them not triangles.
        triples.append(st.sampled_from(list(combinations(range(g.n), 3))))
    extra = draw(st.lists(st.one_of(triples), max_size=3))
    entries += [(tri, draw(WEIGHTS)) for tri in extra]
    return g, draw(st.permutations(entries))


class TestDifferential:
    """verify against a Fraction recomputation through conftest.edge_weight_sums."""

    @settings(max_examples=150, deadline=None)
    @given(claimed_entries(), st.sampled_from(["exact", "float"]))
    def test_matches_reference(self, drawn, mode):
        g, entries = drawn
        report = verify(g, entries, mode=mode)
        got = (
            report.ok,
            report.worst_edge_deviation,
            report.negative_weights,
            report.invalid_triangles,
        )
        assert got == reference_report(g, entries, mode)

    @pytest.mark.parametrize("limit", [0, 1 << 62])
    def test_int64_and_object_sums_agree(self, monkeypatch, k5, limit):
        # The same valid decomposition over int64 and over Python-int sums.
        # The package attribute `tridecomp.verify` is the function.
        module = importlib.import_module("tridecomp.verify")
        monkeypatch.setattr(module, "_INT64_LIMIT", limit)
        entries = [(tri, Fraction(1, 3)) for tri in brute_triangles(k5)]
        expected = object if limit == 0 else np.int64
        assert Decomposition.from_entries(entries).numerators.dtype == expected
        assert verify(k5, entries).ok
        assert not verify(k5, entries[1:]).ok

    def test_decomposition_and_entries_agree(self, k5):
        d = Decomposition.from_entries(
            [(tri, Fraction(1, 3)) for tri in combinations(range(5), 3)]
        )
        assert d.numerators.dtype == np.int64
        assert verify(k5, d) == verify(k5, d.entries)
