"""Exact LP oracle: feasibility verdicts, witnesses, determinism, guardrails,
and the float-guided path against the exact simplex."""

import functools
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp import lp
from tridecomp.decompose import CutCertificate, decompose
from tridecomp.errors import LPSizeError
from tridecomp.graph import enumerate_triangles, triangle_edge_ids
from tridecomp.instances import GenSpec, Xorshift64Star, generate
from tridecomp.lp import lp_feasible
from tridecomp.verify import verify

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
    """Record the dtype of the tableau at every call of `lp._pivot`."""
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


def _tableau_float_basis(ids, m):
    """The float phase in tableau form: every pivot updates the whole
    (m+1) x (t+1) float tableau. The reference that `lp._float_basis`, its
    revised form, must match basis for basis."""
    t = ids.shape[0]
    tab = lp._initial_tableau(ids, m)[0].astype(np.float64)
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
        modulus = lp._PRIME**2
        residues = [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in values]
        numerators, den = lp._reconstruct(residues, modulus)
        assert den == 42
        assert [Fraction(a, den) for a in numerators] == values

    @pytest.mark.parametrize("k", [1, 20, 84, 368])
    def test_lift_steps_reach_the_bound(self, k):
        steps = lp._lift_steps(k)
        assert lp._PRIME**steps > k * 3**k >= lp._PRIME ** (steps - 1)


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

    def test_singular_mod_p(self, monkeypatch):
        g = _rmd14(0)
        ids = triangle_edge_ids(g, enumerate_triangles(g))
        columns = lp._float_basis(ids, g.m)
        monkeypatch.setattr(lp, "_PRIME", 2)
        a = np.zeros((g.m, len(columns)), np.int64)
        a[ids[columns], np.arange(len(columns))[:, None]] = 1
        assert lp._eliminate(a) is None
        self._run(monkeypatch, g)

    def test_lift_capped_at_one_step(self, monkeypatch):
        # This basis needs a second step: its denominator exceeds sqrt(p / 2).
        g = _rmd14(2)
        ids = triangle_edge_ids(g, enumerate_triangles(g))
        columns = lp._float_basis(ids, g.m)
        assert lp._solve_on_columns(ids, g.m, columns) is not None
        monkeypatch.setattr(lp, "_lift_steps", lambda k: 1)
        assert lp._solve_on_columns(ids, g.m, columns) is None
        self._run(monkeypatch, g)

    def test_false_candidate_does_not_end_the_lift(self, monkeypatch):
        # A candidate that fails A_R x = 1 came from too few digits: lifting
        # goes on and finds x.
        g = _rmd14(0)
        ids = triangle_edge_ids(g, enumerate_triangles(g))
        columns = lp._float_basis(ids, g.m)
        expected = _values(columns, lp._solve_on_columns(ids, g.m, columns))
        reconstruct = lp._reconstruct
        moduli = []

        def zero_first(residues, modulus):
            moduli.append(modulus)
            return ([0] * len(residues), 1) if len(moduli) == 1 else reconstruct(residues, modulus)

        monkeypatch.setattr(lp, "_reconstruct", zero_first)
        assert _values(columns, lp._solve_on_columns(ids, g.m, columns)) == expected
        assert moduli == [lp._PRIME, lp._PRIME**2]

    def test_reconstruction_fails_the_check(self, monkeypatch):
        reconstruct = lp._reconstruct

        def off_by_one(residues, modulus):
            found = reconstruct(residues, modulus)
            if found is None:
                return None
            numerators, den = found
            return [numerators[0] + 1] + numerators[1:], den

        monkeypatch.setattr(lp, "_reconstruct", off_by_one)
        self._run(monkeypatch, _rmd14(1))


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
