"""Exact LP oracle: feasibility verdicts, witnesses, determinism, guardrails,
and the float-guided path against the exact simplex."""

import functools
import math
from fractions import Fraction
from itertools import combinations
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp import lp
from tridecomp.decompose import decompose
from tridecomp.errors import LPSizeError
from tridecomp.graph import enumerate_triangles, triangle_edge_ids
from tridecomp.instances import GenSpec, Xorshift64Star, generate
from tridecomp.lp import lp_feasible
from tridecomp.verify import CutCertificate, verify

from conftest import (
    complete_graph,
    complete_minus_edge,
    complete_minus_hamilton,
    edge_weight_sums,
    make_graph,
    random_bitmask_graph,
)
from test_graph import graphs_strategy


class TestVerdicts:
    def test_k5_feasible(self, k5):
        verdict = lp_feasible(k5)
        assert verdict.feasible
        assert verify(k5, verdict.decomposition).ok

    def test_path_infeasible(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        verdict = lp_feasible(g)
        assert not verdict.feasible
        assert verdict.decomposition is None

    def test_k5_minus_edge_feasible(self, k5_minus_edge):
        # Known witness: 1/2 on each triangle using exactly one of {3,4},
        # 0 on (0,1,2); the oracle may find any witness, but it must verify.
        known = []
        for a, b in combinations(range(3), 2):
            known.append((tuple(sorted((a, b, 3))), Fraction(1, 2)))
            known.append((tuple(sorted((a, b, 4))), Fraction(1, 2)))
        sums = edge_weight_sums(k5_minus_edge, known)
        assert all(s == 1 for s in sums.values())

        verdict = lp_feasible(k5_minus_edge)
        assert verdict.feasible
        assert verify(k5_minus_edge, verdict.decomposition).ok

    def test_diamond_infeasible(self):
        # K4 minus an edge: both triangles share edge (0,1) but each also has
        # private edges, forcing weights 1 and 1 and oversumming (0,1).
        g = complete_minus_edge(4, (2, 3))
        assert not lp_feasible(g).feasible

    def test_triangle_free_with_edges_infeasible(self):
        g = make_graph([(i, (i + 1) % 6) for i in range(6)], 6)
        assert not lp_feasible(g).feasible

    def test_empty_graph_feasible(self):
        verdict = lp_feasible(make_graph([], 3))
        assert verdict.feasible
        assert verdict.decomposition.entries == []

    def test_single_triangle(self):
        g = make_graph([(0, 1), (0, 2), (1, 2)], 3)
        verdict = lp_feasible(g)
        assert verdict.feasible
        assert verdict.decomposition.entries == [((0, 1, 2), Fraction(1))]

    def test_guardrail(self, k5):
        with pytest.raises(LPSizeError):
            lp_feasible(k5, max_triangles=5)


class TestWitnessQuality:
    def test_every_triangle_listed(self, k5):
        verdict = lp_feasible(k5)
        assert len(verdict.decomposition.entries) == 10
        assert all(w >= 0 for _, w in verdict.decomposition.entries)

    def test_exact_edge_sums(self):
        g = complete_minus_hamilton(10)
        verdict = lp_feasible(g)
        assert verdict.feasible
        sums = edge_weight_sums(g, verdict.decomposition.entries)
        assert all(s == 1 for s in sums.values())

    def test_deterministic(self, k5_minus_edge):
        first = lp_feasible(k5_minus_edge)
        second = lp_feasible(k5_minus_edge)
        assert first.decomposition.entries == second.decomposition.entries


def _exact_only(mp):
    """Switch the float phase off, so that `lp_feasible` runs the exact simplex."""
    mp.setattr(lp, "_float_basis", lambda ids, m: None)


def _spy_pivots(monkeypatch):
    """Record the dtype of the transform at every call of `lp._pivot`."""
    dtypes = []
    pivot = lp._pivot

    def spy(nums, dens, r, c):
        dtypes.append(nums.dtype)
        pivot(nums, dens, r, c)

    monkeypatch.setattr(lp, "_pivot", spy)
    return dtypes


class TestTableauPaths:
    def test_python_tableau_matches_numpy(self, monkeypatch, k5_minus_edge):
        _exact_only(monkeypatch)
        baseline = lp_feasible(k5_minus_edge)
        # Promote to Python ints before the first pivot.
        monkeypatch.setattr(lp, "_NUMPY_GUARD", 1)
        dtypes = _spy_pivots(monkeypatch)
        forced = lp_feasible(k5_minus_edge)
        assert dtypes and set(dtypes) == {np.dtype(object)}
        assert forced.feasible == baseline.feasible
        assert forced.decomposition.entries == baseline.decomposition.entries

    def test_python_tableau_infeasible_case(self, monkeypatch):
        _exact_only(monkeypatch)
        monkeypatch.setattr(lp, "_NUMPY_GUARD", 1)
        assert not lp_feasible(complete_minus_edge(4, (2, 3))).feasible

    def test_promotion_mid_run(self, monkeypatch):
        _exact_only(monkeypatch)
        g = complete_minus_hamilton(10)
        baseline = lp_feasible(g)
        # Low enough that the guard trips after some int64 pivots.
        monkeypatch.setattr(lp, "_NUMPY_GUARD", 1 << 6)
        dtypes = _spy_pivots(monkeypatch)
        promoted = lp_feasible(g)
        assert dtypes[0] == np.int64 and dtypes[-1] == object
        first_object = dtypes.index(object)
        assert all(d == np.int64 for d in dtypes[:first_object])
        assert all(d == object for d in dtypes[first_object:])
        assert promoted.decomposition.entries == baseline.decomposition.entries

    @settings(max_examples=25, deadline=None)
    @given(graphs_strategy(max_n=6))
    def test_object_tableau_agrees_with_int64(self, g):
        with pytest.MonkeyPatch.context() as mp:
            _exact_only(mp)
            baseline = lp_feasible(g)
            mp.setattr(lp, "_NUMPY_GUARD", 1)
            forced = lp_feasible(g)
        assert forced.feasible == baseline.feasible
        if baseline.feasible:
            assert forced.decomposition.entries == baseline.decomposition.entries


def _verdict_under_stall_limit(g, limit):
    with pytest.MonkeyPatch.context() as mp:
        _exact_only(mp)
        mp.setattr(lp, "_STALL_LIMIT", limit)
        verdict = lp_feasible(g)
    if verdict.feasible:
        assert verify(g, verdict.decomposition).ok
    return verdict.feasible


INFEASIBLE_FIXTURES = {
    "diamond": complete_minus_edge(4, (2, 3)),
    "6-cycle": make_graph([(i, (i + 1) % 6) for i in range(6)], 6),
    "path": make_graph([(0, 1), (1, 2)], 3),
}


class TestPivotRules:
    # A stall limit of 0 is pure Bland; 2 switches rules inside degenerate runs.
    @pytest.mark.parametrize("limit", [0, 2])
    @pytest.mark.parametrize("name", sorted(INFEASIBLE_FIXTURES))
    def test_infeasible_fixtures_agree(self, name, limit):
        g = INFEASIBLE_FIXTURES[name]
        assert not _verdict_under_stall_limit(g, limit)
        assert not _verdict_under_stall_limit(g, lp._STALL_LIMIT)

    @pytest.mark.parametrize("limit", [0, 2])
    def test_random_graphs_agree(self, limit):
        for seed in range(6):
            g = random_bitmask_graph(9, seed=seed)
            assert _verdict_under_stall_limit(g, limit) == _verdict_under_stall_limit(
                g, lp._STALL_LIMIT
            )

    def test_pivot_count_regression(self, monkeypatch):
        # Bland's rule alone takes 2.5k-4.1k pivots on instances of this size.
        _exact_only(monkeypatch)
        g = generate(GenSpec("random-min-degree", n=14, fraction=Fraction(4, 5), seed=0))
        pivots = _spy_pivots(monkeypatch)
        verdict = lp_feasible(g)
        assert verdict.feasible
        assert verify(g, verdict.decomposition).ok
        assert len(pivots) < 600


def _exact_verdict(g):
    with pytest.MonkeyPatch.context() as mp:
        _exact_only(mp)
        return lp_feasible(g)


def _assert_same_verdict(g, verdict, exact):
    assert verdict.feasible == exact.feasible
    for v in (verdict, exact):
        if v.feasible:
            assert verify(g, v.decomposition).ok


def _spy_phase_one(monkeypatch):
    """Record every call of the exact simplex."""
    calls = []
    phase_one = lp._phase_one

    def spy(ids, m):
        calls.append(m)
        return phase_one(ids, m)

    monkeypatch.setattr(lp, "_phase_one", spy)
    return calls


class TestFloatGuided:
    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(max_n=7))
    def test_random_graphs_agree(self, g):
        _assert_same_verdict(g, lp_feasible(g), _exact_verdict(g))

    @pytest.mark.parametrize("fraction", [Fraction(7, 10), Fraction(4, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_rmd14_same_witness(self, monkeypatch, fraction, seed):
        # The float run ends on the exact run's final basis here, so the
        # witnesses, and with them the oracle's output, coincide.
        g = generate(GenSpec("random-min-degree", n=14, fraction=fraction, seed=seed))
        exact = _exact_verdict(g)
        calls = _spy_phase_one(monkeypatch)
        verdict = lp_feasible(g)
        assert calls == []
        _assert_same_verdict(g, verdict, exact)
        assert verdict.decomposition.entries == exact.decomposition.entries


def _columns(g, triples):
    """Column indices of the given vertex triples in the LP's triangle order."""
    order = {tuple(t): j for j, t in enumerate(enumerate_triangles(g).tolist())}
    return np.array(sorted(order[t] for t in triples))


def _system(g, columns):
    """Float A_S and the least-squares solution of A_S x = 1."""
    ids = triangle_edge_ids(g, enumerate_triangles(g))[columns]
    a = np.zeros((g.m, columns.size))
    a[ids, np.arange(columns.size)[:, None]] = 1
    x = np.linalg.lstsq(a, np.ones(g.m), rcond=None)[0]
    return a, x


# On K6, weight -1/2 on 012, 1/2 on abx for each edge ab of 012 and each x in
# {3, 4, 5}, and 1 on 345 sums to 1 on every edge; these 11 columns have full
# rank, so that negative solution is the only one.
NEGATIVE_BASIS = [(0, 1, 2), (3, 4, 5)] + [
    (a, b, x) for a, b in ((0, 1), (0, 2), (1, 2)) for x in (3, 4, 5)
]


class TestFallback:
    """Whatever basis the float phase returns, a bad one lands on the exact
    simplex and the verdict stays exact."""

    def _run(self, monkeypatch, g, columns):
        if columns is not None:
            ids = triangle_edge_ids(g, enumerate_triangles(g))
            assert lp._solve_on_columns(ids, g.m, columns) is None
        exact = _exact_verdict(g)
        monkeypatch.setattr(lp, "_float_basis", lambda ids, m: columns)
        calls = _spy_phase_one(monkeypatch)
        verdict = lp_feasible(g)
        assert calls == [g.m]
        _assert_same_verdict(g, verdict, exact)
        if exact.feasible:
            assert verdict.decomposition.entries == exact.decomposition.entries
        return verdict

    def test_negative_value(self, monkeypatch):
        g = complete_graph(6)
        columns = _columns(g, NEGATIVE_BASIS)
        a, x = _system(g, columns)
        assert np.linalg.matrix_rank(a) == columns.size
        assert np.allclose(a @ x, 1) and x.min() < 0
        assert self._run(monkeypatch, g, columns).feasible

    def test_singular_basis(self, monkeypatch):
        # 20 columns in 15 rows.
        g = complete_graph(6)
        columns = np.arange(20)
        assert np.linalg.matrix_rank(_system(g, columns)[0]) < columns.size
        assert self._run(monkeypatch, g, columns).feasible

    @pytest.mark.parametrize(
        "g, triples, feasible",
        [
            # Edge 34 lies in no chosen triangle.
            (complete_graph(5), [(0, 1, 2)], True),
            # Both triangles of the diamond must weigh 1, so edge 01 sums to 2.
            (complete_minus_edge(4, (2, 3)), [(0, 1, 2), (0, 1, 3)], False),
        ],
    )
    def test_inconsistent_basis(self, monkeypatch, g, triples, feasible):
        columns = _columns(g, triples)
        a, x = _system(g, columns)
        assert np.linalg.matrix_rank(a) == columns.size
        assert not np.allclose(a @ x, 1)
        assert self._run(monkeypatch, g, columns).feasible == feasible

    def test_no_basis_infeasible(self, monkeypatch):
        assert not self._run(monkeypatch, INFEASIBLE_FIXTURES["diamond"], None).feasible

    def test_no_basis_feasible(self, monkeypatch, k5_minus_edge):
        assert self._run(monkeypatch, k5_minus_edge, None).feasible

    def test_unverified_witness(self, monkeypatch, k5_minus_edge):
        # Weight 1 on every basic column oversums the edges, so `verify`
        # rejects the witness even though the solve accepted it.
        exact = _exact_verdict(k5_minus_edge)
        monkeypatch.setattr(
            lp, "_solve_on_columns", lambda ids, m, columns: (np.ones(len(columns), np.int64),) * 2
        )
        calls = _spy_phase_one(monkeypatch)
        verdict = lp_feasible(k5_minus_edge)
        assert calls == [k5_minus_edge.m]
        assert verdict.decomposition.entries == exact.decomposition.entries

    def test_pivot_budget(self, monkeypatch):
        g = generate(GenSpec("random-min-degree", n=14, fraction=Fraction(4, 5), seed=0))
        ids = triangle_edge_ids(g, enumerate_triangles(g))
        assert lp._float_basis(ids, g.m) is not None
        monkeypatch.setattr(lp, "_FLOAT_PIVOTS", 10)
        assert lp._float_basis(ids, g.m) is None


def _values(columns, solved):
    """{column: Fraction} from a `_solve_on_columns` result."""
    return {int(j): Fraction(int(p), int(q)) for j, p, q in zip(columns, *solved)}


@st.composite
def dense_graphs(draw, max_n=9):
    """K_n minus at most n/2 edges, 5 <= n <= max_n: mostly LP-feasible."""
    n = draw(st.integers(min_value=5, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    removed = draw(st.sets(st.sampled_from(pairs), max_size=n // 2))
    return make_graph([p for p in pairs if p not in removed], n)


def _rmd14(seed):
    return generate(GenSpec("random-min-degree", n=14, fraction=Fraction(4, 5), seed=seed))


def _initial_tableau(ids, m):
    """Phase-1 tableau [A | 1] over the objective row, from the (t, 3)
    triangle edge ids: one row per edge, one column per triangle, then the
    right-hand side."""
    t = ids.shape[0]
    nums = np.zeros((m + 1, t + 1), np.int64)
    nums[ids, np.arange(t)[:, None]] = 1
    nums[:m, -1] = 1
    # Minus the column sums: each triangle column holds three ones.
    nums[m, :t] = -3
    nums[m, -1] = -m
    return nums, np.ones(m + 1, np.int64)


def _tableau_pivot(nums, dens, r, c):
    """Pivot the whole tableau in place on its entry (r, c), then gcd-reduce
    every row."""
    p = nums[r, c]
    col = nums[:, c].copy()
    pivot_row = nums[r].copy()
    nums *= p
    nums -= np.outer(col, pivot_row)
    nums[r] = pivot_row
    dens *= p
    dens[r] = p
    g = np.gcd(np.gcd.reduce(np.abs(nums), axis=1), dens)
    g[g == 0] = 1
    nums //= g[:, None]
    dens //= g


def _tableau_phase_one(ids, m):
    """The exact phase-1 simplex in tableau form: every pivot updates the
    whole (m+1) x (t+1) integer tableau, promoted to Python ints once an
    entry reaches `lp._NUMPY_GUARD`. The reference that `lp._phase_one`, its
    revised form, must match pivot for pivot. Returns the final basis, the
    tableau (nums, dens) and the number of pivots."""
    t = ids.shape[0]
    nums, dens = _initial_tableau(ids, m)
    basis = list(range(t, t + m))
    stalled = pivots = 0
    while True:
        objective = nums[m, :t]
        candidates = np.flatnonzero(objective < 0)
        if candidates.size == 0:
            return basis, nums, dens, pivots
        if stalled >= lp._STALL_LIMIT:
            entering = int(candidates[0])
        else:
            entering = int(candidates[np.argmin(objective[candidates])])
        rows = np.flatnonzero(nums[:m, entering] > 0)
        leave_row = None
        best_num = best_den = None
        for i, a, rn in zip(
            rows.tolist(), nums[rows, entering].tolist(), nums[rows, -1].tolist()
        ):
            if leave_row is None or rn * best_den < best_num * a or (
                rn * best_den == best_num * a and basis[i] < basis[leave_row]
            ):
                leave_row = i
                best_num, best_den = rn, a
        stalled = stalled + 1 if best_num == 0 else 0
        if nums.dtype != object and max(np.abs(nums).max(), dens.max()) >= lp._NUMPY_GUARD:
            nums, dens = nums.astype(object), dens.astype(object)
        _tableau_pivot(nums, dens, leave_row, entering)
        basis[leave_row] = entering
        pivots += 1


def _tableau_float_basis(ids, m):
    """The float phase in tableau form: every pivot updates the whole
    (m+1) x (t+1) float tableau. The reference that `lp._float_basis`, its
    revised form, must match basis for basis."""
    t = ids.shape[0]
    tab = _initial_tableau(ids, m)[0].astype(np.float64)
    basis = np.arange(t, t + m)
    stalled = 0
    for _ in range(lp._FLOAT_PIVOTS):
        objective = tab[m, :t]
        low = objective.min()
        if low >= -lp._TOL:
            return np.sort(basis[basis < t]) if tab[m, -1] >= -lp._TOL else None
        if stalled >= lp._STALL_LIMIT:
            entering = int(np.argmax(objective < -lp._TOL))
        else:
            entering = int(np.argmax(objective <= low + lp._TOL))
        column = tab[:m, entering]
        rows = np.flatnonzero(column > lp._TOL)
        if rows.size == 0:
            return None
        ratios = tab[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + lp._TOL]
        leave_row = int(ties[np.argmin(basis[ties])])
        stalled = stalled + 1 if best <= lp._TOL else 0
        pivot_row = tab[leave_row] / tab[leave_row, entering]
        tab -= np.outer(tab[:, entering], pivot_row)
        tab[leave_row] = pivot_row
        basis[leave_row] = entering
    return None


def _assert_same_basis(g):
    ids = triangle_edge_ids(g, enumerate_triangles(g))
    expected = _tableau_float_basis(ids, g.m)
    columns = lp._float_basis(ids, g.m)
    if expected is None:
        assert columns is None
    else:
        assert columns is not None and columns.tolist() == expected.tolist()


RMD_FRACTIONS = [Fraction(7, 10), Fraction(3, 4), Fraction(4, 5), Fraction(9, 10)]


@functools.cache
def _basis_instances(group):
    """The fixed graphs on which the float phase is checked against the
    tableau reference, by group."""
    if group == "oracle-lp":
        # The 16 instances of the benchmark's `oracle-lp` workload at seed 3.
        rng = Xorshift64Star(3)
        return [_rmd14(rng.next_u64()) for _ in range(16)]
    if group == "hamilton":
        return [complete_minus_hamilton(n) for n in range(7, 15)]
    n = int(group.removeprefix("rmd"))
    return [
        generate(GenSpec("random-min-degree", n=n, fraction=f, seed=s))
        for f in RMD_FRACTIONS
        for s in range(3)
    ]


BASIS_GROUPS = ["oracle-lp", "rmd12", "rmd14", "rmd16", "hamilton"]


class TestRevisedFloatPhase:
    """The revised float phase returns the tableau reference's basis. A
    stall limit of 0 is pure Bland and 3 switches rules inside degenerate
    runs; pure Bland takes thousands of pivots an instance from n = 14 on,
    so under it only the two cheapest groups run here."""

    @pytest.mark.parametrize(
        "group, limit",
        [(group, limit) for limit in (None, 3) for group in BASIS_GROUPS]
        + [("rmd12", 0), ("hamilton", 0)],
    )
    def test_fixed_graphs(self, monkeypatch, group, limit):
        if limit is not None:
            monkeypatch.setattr(lp, "_STALL_LIMIT", limit)
        for g in _basis_instances(group):
            _assert_same_basis(g)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(graphs_strategy(max_n=7), dense_graphs()))
    def test_random_graphs(self, g):
        if g.m == 0 or enumerate_triangles(g).shape[0] == 0:
            return
        for limit in (lp._STALL_LIMIT, 3, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lp, "_STALL_LIMIT", limit)
                _assert_same_basis(g)


def _c4_blowup(n):
    """The C4 blow-up with a clique in each part: n = 4k vertices in parts
    V0..V3 of size k, V_i joined completely to V_{i+-1 mod 4} and not at all to
    V_{i+2}. Infeasible for every k >= 2."""
    k = n // 4
    return make_graph(
        [(u, v) for u, v in combinations(range(n), 2) if v // k - u // k != 2], n
    )


EXACT_FRACTIONS = [Fraction(*f) for f in ((1, 2), (11, 20), (3, 5), (7, 10), (4, 5), (9, 10))]


@functools.cache
def _exact_instances(group):
    """The fixed graphs on which the exact simplex is checked against the
    tableau reference, by group, as (graph, triangle edge ids)."""
    if group == "fixtures":
        graphs = [INFEASIBLE_FIXTURES[name] for name in sorted(INFEASIBLE_FIXTURES)]
    elif group == "hamilton":
        graphs = [complete_minus_hamilton(n) for n in range(7, 13)]
    elif group == "c4":
        graphs = [_c4_blowup(n) for n in (12, 16)]
    else:
        n = int(group.removeprefix("rmd"))
        graphs = [
            generate(GenSpec("random-min-degree", n=n, fraction=f, seed=s))
            for f in EXACT_FRACTIONS
            for s in range(3)
        ]
    return [(g, triangle_edge_ids(g, enumerate_triangles(g))) for g in graphs]


EXACT_GROUPS = ["fixtures", "rmd10", "rmd12", "hamilton", "c4"]


def _rhs_values(nums, dens):
    """The last column as Fractions: the basic values, then the objective."""
    return [Fraction(int(p), int(q)) for p, q in zip(nums[:, -1], dens)]


def _assert_farkas(ids, m, nums, dens):
    """y = -M[m, :m] of a final transform over dens[m] > 0 has
    y_ab + y_ac + y_bc <= 0 on every triangle and sum(y) > 0, in integers:
    no x >= 0 has A x = 1."""
    y = np.array([-int(v) for v in nums[m, :m]], object)
    assert int(dens[m]) > 0
    assert all(s <= 0 for s in y[ids].sum(axis=1))
    assert sum(y) == -int(nums[m, m]) > 0


def _assert_same_run(ids, m):
    expected_basis, expected_nums, expected_dens, expected_pivots = _tableau_phase_one(ids, m)
    calls = []
    pivot = lp._pivot
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_pivot", lambda *args: calls.append(1) or pivot(*args))
        basis, nums, dens = lp._phase_one(ids, m)
    assert nums.shape == (m + 1, m + 1)
    assert basis == expected_basis
    assert len(calls) == expected_pivots
    # The last value is the objective, which gives the verdict.
    assert _rhs_values(nums, dens) == _rhs_values(expected_nums, expected_dens)
    if nums[m, m] != 0:
        _assert_farkas(ids, m, nums, dens)


class TestRevisedExactPhase:
    """The revised exact simplex makes the tableau reference's pivots: the
    same count, the same final basis, and the same basic values and
    objective. On an infeasible run its final dual is a Farkas vector. A
    stall limit of 0 is pure Bland and 3 switches rules inside degenerate
    runs."""

    @pytest.mark.parametrize(
        "group, limit",
        [(group, limit) for limit in (None, 3) for group in EXACT_GROUPS]
        + [("fixtures", 0), ("hamilton", 0)],
    )
    def test_fixed_graphs(self, monkeypatch, group, limit):
        if limit is not None:
            monkeypatch.setattr(lp, "_STALL_LIMIT", limit)
        for g, ids in _exact_instances(group):
            _assert_same_run(ids, g.m)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(graphs_strategy(max_n=7), dense_graphs()))
    def test_random_graphs(self, g):
        if g.m == 0 or enumerate_triangles(g).shape[0] == 0:
            return
        ids = triangle_edge_ids(g, enumerate_triangles(g))
        for limit in (lp._STALL_LIMIT, 3, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lp, "_STALL_LIMIT", limit)
                _assert_same_run(ids, g.m)

    @pytest.mark.parametrize("group", ["fixtures", "c4"])
    def test_final_dual_is_a_farkas_vector(self, group):
        # Every graph of these groups is infeasible; `_assert_same_run` makes
        # the same check on every infeasible run above.
        for g, ids in _exact_instances(group):
            _, nums, dens = lp._phase_one(ids, g.m)
            _assert_farkas(ids, g.m, nums, dens)

    def test_guard_covers_the_entering_column(self):
        # Every transform entry is below the guard, but the entering column,
        # a sum of three of them, reaches it: its pivot would overflow int64.
        big = lp._NUMPY_GUARD - 1
        nums = lp._start_transform(3, np.int64)
        nums[0, :3] = big
        dens = np.ones(4, np.int64)
        column = nums[:, 0] + nums[:, 1] + nums[:, 2]
        assert np.abs(nums).max() < lp._NUMPY_GUARD <= column.max()
        promoted = lp._promoted(nums, dens, column)
        assert [a.dtype for a in promoted] == [np.dtype(object)] * 3
        assert [a.tolist() for a in promoted] == [nums.tolist(), dens.tolist(), column.tolist()]
        small = column.copy()
        small[0] = big
        assert [a.dtype for a in lp._promoted(nums, dens, small)] == [np.dtype(np.int64)] * 3

    def test_guard_reads_negative_entries(self):
        nums = lp._start_transform(3, np.int64)
        dens = np.ones(4, np.int64)
        column = nums[:, 0].copy()
        for array in (nums, column):
            array[1] = -lp._NUMPY_GUARD
            promoted = lp._promoted(nums, dens, column)
            assert [a.dtype for a in promoted] == [np.dtype(object)] * 3
            array[1] = 1 - lp._NUMPY_GUARD
            assert lp._promoted(nums, dens, column)[0].dtype == np.int64


class TestLiftedSolve:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(graphs_strategy(max_n=7), dense_graphs()))
    def test_matches_exact_simplex(self, g):
        # On the exact simplex's own basis the lifted solve must return the
        # simplex's values; on the float basis of an infeasible instance it
        # must find nothing.
        if g.m == 0 or enumerate_triangles(g).shape[0] == 0:
            return
        ids = triangle_edge_ids(g, enumerate_triangles(g))
        basis, nums, dens = lp._phase_one(ids, g.m)
        if nums[-1, -1] != 0:
            columns = lp._float_basis(ids, g.m)
            assert columns is None or lp._solve_on_columns(ids, g.m, columns) is None
            return
        rows = [i for i, j in enumerate(basis) if j < ids.shape[0]]
        columns = np.array([basis[i] for i in rows])
        expected = {
            int(j): Fraction(int(nums[i, -1]), int(dens[i])) for i, j in zip(rows, columns)
        }
        assert _values(columns, lp._solve_on_columns(ids, g.m, columns)) == expected

    def test_oracle_lp_instances_take_the_lifted_path(self, monkeypatch):
        calls = _spy_phase_one(monkeypatch)
        for g in _basis_instances("oracle-lp"):
            verdict = lp_feasible(g)
            assert verdict.feasible
            assert verify(g, verdict.decomposition).ok
        assert calls == []

    def test_reconstruct_round_trip(self):
        values = [Fraction(3, 7), Fraction(-5, 14), Fraction(0), Fraction(2), Fraction(1, 3)]
        shift = 40
        numerators = [round(v * 2**shift) for v in values]
        # An approximation one unit off still reconstructs.
        numerators[1] += 1
        found, den = lp._reconstruct(numerators, shift)
        assert den == 42
        assert [Fraction(a, den) for a in found] == values

    @pytest.mark.parametrize("k", [1, 20, 84, 368])
    def test_lift_steps_reach_the_bound(self, k):
        # The lifting steps stop once D = 2^bits passes k 3^k error^2; there
        # `_reconstruct`'s bound B covers H = sqrt(k 3^(k-1)) times the error.
        for error in (1, 7, 1 << 20):
            bits = lp._precision_bits(k, error)
            assert 2**bits > k * 3**k * error**2 >= 2 ** (bits - 1)
            assert math.isqrt((2**bits - 1) // 2) ** 2 >= k * 3 ** (k - 1) * error**2


def _gram(g, columns):
    """G = A_S^T A_S in float64."""
    ids = triangle_edge_ids(g, enumerate_triangles(g))
    a = np.zeros((g.m, len(columns)))
    a[ids[columns], np.arange(len(columns))[:, None]] = 1
    return a.T @ a


def _float_columns(g):
    ids = triangle_edge_ids(g, enumerate_triangles(g))
    return ids, lp._float_basis(ids, g.m)


class TestLiftFaults:
    """A lifted solve that cannot finish lands on the exact simplex, which
    gives the same verdict and witness as without the fault."""

    def _run(self, monkeypatch, g):
        exact = _exact_verdict(g)
        calls = _spy_phase_one(monkeypatch)
        verdict = lp_feasible(g)
        assert calls == [g.m]
        _assert_same_verdict(g, verdict, exact)
        assert verdict.decomposition.entries == exact.decomposition.entries

    def test_refused_rank_proof(self, monkeypatch):
        # Three times the inverse leaves ||2^s I - G R'|| near 2^(s+1).
        g = _rmd14(0)
        ids, columns = _float_columns(g)
        inverse = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: 3 * inverse(a))
        assert lp._solve_on_columns(ids, g.m, columns) is None
        self._run(monkeypatch, g)

    def test_rank_proof_needs_exact_floats(self):
        # The same proof, scaled by 2^t, is refused once a column sum of
        # |R'| times max G reaches 2^52, where float64 sums may round.
        g = _rmd14(0)
        gram = _gram(g, _float_columns(g)[1])
        shift = 30
        scaled = np.rint(np.ldexp(np.linalg.inv(gram), shift))
        width = np.abs(scaled).sum(axis=0).max() * gram.max()
        t = 52 - math.frexp(width)[1]
        assert shift + t + 1 < 52
        residual = lp._inverse_residual(gram, scaled * 2**t, shift + t)
        assert residual is not None and residual.sum(axis=1).max() < 2 ** (shift + t)
        assert lp._inverse_residual(gram, scaled * 2 ** (t + 1), shift + t + 1) is None

    def test_lift_capped_at_one_step(self, monkeypatch):
        # This basis needs a second step: its common denominator has 19 bits,
        # against about 34 bits a step.
        g = generate(GenSpec("random-min-degree", n=14, fraction=Fraction(9, 10), seed=0))
        ids, columns = _float_columns(g)
        assert lp._solve_on_columns(ids, g.m, columns) is not None
        monkeypatch.setattr(lp, "_precision_bits", lambda k, error: 1)
        assert lp._solve_on_columns(ids, g.m, columns) is None
        self._run(monkeypatch, g)

    def test_false_candidate_does_not_end_the_lift(self, monkeypatch):
        # A candidate that fails A_S x = 1 came from too few bits: lifting
        # goes on and finds x.
        g = _rmd14(0)
        ids, columns = _float_columns(g)
        expected = _values(columns, lp._solve_on_columns(ids, g.m, columns))
        reconstruct = lp._reconstruct
        shifts = []

        def zero_first(numerators, shift):
            shifts.append(shift)
            return ([0] * len(numerators), 1) if len(shifts) == 1 else reconstruct(numerators, shift)

        monkeypatch.setattr(lp, "_reconstruct", zero_first)
        assert _values(columns, lp._solve_on_columns(ids, g.m, columns)) == expected
        assert len(shifts) == 2 and shifts[1] == 2 * shifts[0]

    def test_last_step_reconstructs(self, monkeypatch):
        # Steps 1 and 2 are too few here, and the bound is reached at step 3,
        # off the doubling schedule: that step still proposes x.
        g = generate(GenSpec("random-min-degree", n=20, fraction=Fraction(4, 5), seed=0))
        ids, columns = _float_columns(g)
        reconstruct = lp._reconstruct
        shifts = []
        monkeypatch.setattr(lp, "_reconstruct", lambda n, s: shifts.append(s) or reconstruct(n, s))
        expected = _values(columns, lp._solve_on_columns(ids, g.m, columns))
        sigma = shifts[0]
        assert shifts == [sigma, 2 * sigma, 4 * sigma]
        shifts.clear()
        monkeypatch.setattr(lp, "_precision_bits", lambda k, error: 2 * sigma + 1)
        assert _values(columns, lp._solve_on_columns(ids, g.m, columns)) == expected
        assert shifts == [sigma, 2 * sigma, 3 * sigma]

    def test_overflow_guard(self, monkeypatch):
        # With the int64 limit at 2^30 the first step already trips the guard.
        g = _rmd14(0)
        ids, columns = _float_columns(g)
        monkeypatch.setattr(lp, "_INT64_LIMIT", 1 << 30)
        assert lp._solve_on_columns(ids, g.m, columns) is None
        self._run(monkeypatch, g)

    def test_reconstruction_fails_the_check(self, monkeypatch):
        reconstruct = lp._reconstruct

        def off_by_one(numerators, shift):
            found = reconstruct(numerators, shift)
            if found is None:
                return None
            values, den = found
            return [values[0] + 1] + values[1:], den

        monkeypatch.setattr(lp, "_reconstruct", off_by_one)
        self._run(monkeypatch, _rmd14(1))


# Dixon's p-adic solve, the exact solve `lp._solve_on_columns` had before
# the float-guided lift: the reference it must match value for value.

# The prime of the reference's modular arithmetic, 2^25 - 39.
_PRIME = 33_554_393


def _eliminate(a):
    """Forward elimination of the (m, k) int64 0/1 matrix `a` mod `_PRIME`,
    in place. Column j pivots on the first row not pivoted yet whose entry is
    nonzero; returns these rows in column order, or None when some column has
    none, that is when `a` has rank below k mod p. Afterwards row pivots[j]
    holds U's row j from column j on and, before it, L's multipliers: a[pivots]
    packs L U = A_R mod p, A_R being the pivot rows of the input and L unit
    lower triangular."""
    m, k = a.shape
    free = np.ones(m, np.bool_)
    pivots = []
    for j in range(k):
        rows = (a[:, j] * free).nonzero()[0]
        if rows.size == 0:
            return None
        r = int(rows[0])
        free[r] = False
        pivots.append(r)
        if rows.size > 1:
            rows = rows[1:]
            block = a[rows, j:]
            # Entries are residues below p < 2^25, so l * a[r] < 2^50 and the
            # difference stays far inside int64.
            l = block[:, 0] * pow(int(a[r, j]), -1, _PRIME) % _PRIME
            block[:, 1:] -= l[:, None] * a[r, j + 1 :]
            block[:, 1:] %= _PRIME
            block[:, 0] = l
            a[rows, j:] = block
    return pivots


def _sparse_rows(a):
    """Each row of the 2-D array `a` as (column indices, values), Python lists."""
    rows, cols = np.nonzero(a)
    ends = np.cumsum(np.bincount(rows, minlength=a.shape[0])).tolist()
    cols, vals = cols.tolist(), a[rows, cols].tolist()
    return [(cols[s:e], vals[s:e]) for s, e in zip([0] + ends, ends)]


def _dot(row, y):
    """The sum of values[i] * y[columns[i]] over a sparse row (columns, values)."""
    cols, vals = row
    return sum(map(mul, vals, map(y.__getitem__, cols)))


def _lift_steps(k):
    """The lifting steps s with p^s > k 3^k. Every column of A_R holds at most
    three ones, so by Hadamard's inequality |det A_R| and each numerator of
    x = A_R^-1 1 by Cramer's rule are at most H = sqrt(k 3^(k-1)); as
    k 3^k > 2 H^2, reconstruction mod p^s recovers x."""
    steps, power, bound = 1, _PRIME, k * 3**k
    while power <= bound:
        steps, power = steps + 1, power * _PRIME
    return steps


def _reconstruct(residues, modulus):
    """Rationals congruent to `residues` mod `modulus` over one common
    denominator, as (numerators, denominator); None once that denominator
    would pass B = isqrt(modulus / 2). Each residue is first scaled by the
    denominator found so far, so it reads as an integer within B unless it
    adds a factor, which the half-extended Euclid finds (Wang 1981). As
    2 B^2 < modulus, a fraction with numerator and denominator within B is the
    only one for its residue, so past `_lift_steps` the answer is x itself."""
    bound = math.isqrt(modulus // 2)
    numerators, den = [], 1
    for v in residues:
        v = v * den % modulus
        if modulus - v <= bound:
            v -= modulus
        elif v > bound:
            r0, r1, s0, s1 = modulus, v, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if s1 < 0:
                r1, s1 = -r1, -s1
            if s1 * den > bound:
                return None
            numerators = [u * s1 for u in numerators]
            den *= s1
            v = r1
        numerators.append(v)
    return numerators, den


def _dixon_solve(ids, m, columns):
    """Exact x with A_S x = 1 on the triangle columns S, as (numerators,
    denominators); None when A_S is singular, the system is inconsistent or
    some x_j < 0. Dixon's p-adic lifting (Numer. Math. 1982): `_eliminate`
    picks k rows A_R with A_R invertible mod p, which proves A_S has full
    column rank; each step solves A_R y = r mod p with the factors and sets
    r <- (r - A_R y) / p, so that x = sum_i y_i p^i mod p^s after s steps."""
    k = len(columns)
    a = np.zeros((m, k), np.int64)
    a[ids[columns], np.arange(k)[:, None]] = 1
    edge_columns = [cols for cols, _ in _sparse_rows(a)]
    pivots = _eliminate(a)
    if pivots is None:
        return None
    lu = a[pivots]
    lower, upper = _sparse_rows(np.tril(lu, -1)), _sparse_rows(np.triu(lu, 1))
    p = _PRIME
    inverse_diagonal = [pow(d, -1, p) for d in np.diagonal(lu).tolist()]
    # Python ints from here on; each r_i stays within [-k, 1], since A_R is
    # 0/1 with at most k ones a row and y < p.
    r, x, modulus = [1] * k, [0] * k, 1
    for _ in range(_lift_steps(k)):
        y = []
        for r_i, row in zip(r, lower):
            y.append((r_i - _dot(row, y)) % p)
        for i in reversed(range(k)):
            y[i] = (y[i] - _dot(upper[i], y)) * inverse_diagonal[i] % p
        r = [(r_i - sum(map(y.__getitem__, edge_columns[e]))) // p for r_i, e in zip(r, pivots)]
        x = [x_j + y_j * modulus for x_j, y_j in zip(x, y)]
        modulus *= p
        found = _reconstruct(x, modulus)
        if found is None:
            continue
        numerators, den = found
        sums = [sum(map(numerators.__getitem__, cols)) for cols in edge_columns]
        if any(sums[e] != den for e in pivots):
            continue
        # A_R x = 1 holds exactly, and A_R is nonsingular: x is the only
        # candidate, so A_S x = 1 and x >= 0 decide.
        if any(s != den for s in sums) or min(numerators, default=0) < 0:
            return None
        return np.array(numerators, object), np.full(k, den, object)
    return None


def _assert_matches_dixon(g, columns):
    ids = triangle_edge_ids(g, enumerate_triangles(g))
    expected = _dixon_solve(ids, g.m, columns)
    solved = lp._solve_on_columns(ids, g.m, columns)
    if expected is None:
        assert solved is None
    else:
        assert solved is not None
        assert [a.tolist() for a in solved] == [a.tolist() for a in expected]


def _simplex_columns(g):
    """The triangle columns of the exact simplex's final basis, feasible or not."""
    ids = triangle_edge_ids(g, enumerate_triangles(g))
    basis, _, _ = lp._phase_one(ids, g.m)
    return np.array(sorted(j for j in basis if j < ids.shape[0]))


class TestDixonReference:
    """The lifted solve returns the Dixon reference's numerators and
    denominators, or None where it does."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_oracle_lp_instances(self, seed):
        rng = Xorshift64Star(seed)
        for _ in range(16):
            g = _rmd14(rng.next_u64())
            _assert_matches_dixon(g, _float_columns(g)[1])

    @pytest.mark.parametrize("seed", range(2))
    def test_rmd20(self, seed):
        g = generate(GenSpec("random-min-degree", n=20, fraction=Fraction(4, 5), seed=seed))
        _assert_matches_dixon(g, _float_columns(g)[1])

    @pytest.mark.parametrize(
        "g, triples",
        [
            (complete_graph(6), NEGATIVE_BASIS),
            (complete_graph(5), [(0, 1, 2)]),
            (complete_minus_edge(4, (2, 3)), [(0, 1, 2), (0, 1, 3)]),
        ],
    )
    def test_fallback_bases(self, g, triples):
        _assert_matches_dixon(g, _columns(g, triples))

    def test_singular_basis(self):
        _assert_matches_dixon(complete_graph(6), np.arange(20))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(graphs_strategy(max_n=7), dense_graphs()))
    def test_random_graphs(self, g):
        if g.m == 0 or enumerate_triangles(g).shape[0] == 0:
            return
        columns = _float_columns(g)[1]
        if columns is not None:
            _assert_matches_dixon(g, columns)
        simplex = _simplex_columns(g)
        if simplex.size:
            _assert_matches_dixon(g, simplex)


class TestAgreementWithFlow:
    def test_flow_success_implies_feasible(self):
        for seed in range(12):
            g = random_bitmask_graph(9, seed=seed)
            try:
                outcome = decompose(g)
            except Exception:
                continue
            if isinstance(outcome, CutCertificate):
                continue
            assert verify(g, outcome).ok
            verdict = lp_feasible(g)
            assert verdict.feasible
            assert verify(g, verdict.decomposition).ok

    def test_flow_witness_is_lp_witness(self, k5):
        # A successful flow run is itself a feasibility witness, so the two
        # methods can never disagree in that direction.
        outcome = decompose(k5)
        assert verify(k5, outcome).ok
        assert lp_feasible(k5).feasible


@settings(max_examples=25, deadline=None)
@given(graphs_strategy(max_n=6))
def test_feasible_witnesses_always_verify(g):
    verdict = lp_feasible(g)
    if verdict.feasible:
        assert verify(g, verdict.decomposition).ok


@settings(max_examples=25, deadline=None)
@given(graphs_strategy(max_n=6))
def test_forced_bland_agrees(g):
    assert _verdict_under_stall_limit(g, 0) == _verdict_under_stall_limit(g, lp._STALL_LIMIT)
