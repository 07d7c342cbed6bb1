"""Max-flow solver against exhaustive min-cut enumeration, networkx and injected
faults; the scipy path against the Python-int path."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp import kernels, maxflow
from tridecomp.decompose import build_network, initial_weight
from tridecomp.instances import GenSpec, generate
from tridecomp.maxflow import ArcNetwork, flow_violation, max_flow
from tridecomp.peeling import peel_heavy_triangles

from conftest import brute_links, brute_min_cut, complete_minus_hamilton, network_from_triples


def net(num_nodes, triples, source=0, sink=None):
    if sink is None:
        sink = num_nodes - 1
    return network_from_triples(num_nodes, triples, source, sink)


class TestBasics:
    def test_single_arc(self):
        res = max_flow(net(2, [(0, 1, Fraction(5, 3))]))
        assert res.value == Fraction(5, 3)
        assert Fraction(int(res.flows[0]), res.denominator) == Fraction(5, 3)

    def test_parallel_paths(self):
        res = max_flow(net(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]))
        assert res.value == 2
        assert res.source_side.tolist() == [True, False, False, False]

    def test_bottleneck(self):
        # min cut computed by enumerating the 4 cuts of this 4-node network
        triples = [(0, 1, 2), (1, 2, 1), (1, 3, 1), (2, 3, 2)]
        expected = brute_min_cut(4, [0, 1, 1, 2], [1, 2, 3, 3], [2, 1, 1, 2], 0, 3)
        assert expected == 2
        assert max_flow(net(4, triples)).value == expected

    def test_empty_network(self):
        n = net(2, [])
        assert n.tails.size == 0 and n.denominator == 1
        res = max_flow(n)
        assert res.value == 0
        assert res.flows.size == 0
        assert res.source_side.tolist() == [True, False]

    def test_disconnected(self):
        res = max_flow(net(3, [(0, 1, 7)], source=0, sink=2))
        assert res.value == 0

    def test_antiparallel_arcs(self):
        res = max_flow(net(3, [(0, 1, 3), (1, 0, 3), (1, 2, 2)]))
        assert res.value == 2

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            max_flow(net(2, [], source=0, sink=0))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_flow(net(2, [(0, 1, Fraction(-1))]))

    def test_bad_arcs_rejected_before_merging(self):
        # A negative arc parallel to a larger one must not merge into a
        # valid slot, and an endpoint out of range must not wrap into one.
        with pytest.raises(ValueError, match="negative"):
            ArcNetwork.from_arcs(2, [0, 0], [1, 1], [-1, 2], 0, 1)
        with pytest.raises(ValueError, match="out of range"):
            ArcNetwork.from_arcs(2, [0, 0], [1, 2], [1, 1], 0, 1)

    def test_rational_capacities(self):
        n = net(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2))])
        # Scaled once by the lcm 6 of the denominators; slots 0->1, 1->0,
        # 1->2, 2->1, the reverses at capacity 0.
        assert n.denominator == 6
        assert list(zip(n.tails.tolist(), n.heads.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert n.capacities.tolist() == [2, 0, 3, 0]
        res = max_flow(n)
        assert res.denominator == 6
        assert res.flows.tolist() == [2, -2, 2, -2]
        assert res.value == Fraction(1, 3)

    def test_huge_capacities_use_exact_path(self):
        big = Fraction(10**30, 7)
        n = net(2, [(0, 1, big)])
        assert n.capacities.tolist() == [10**30, 0]
        res = max_flow(n)
        assert res.value == big
        assert res.flows.dtype == object and res.flows.tolist() == [10**30, -(10**30)]


def non_canonical(n):
    """The path network n = 0 -> 1 -> 2 with its slots in reverse order, and
    cut to its two arcs (slots 0 and 2) without their reverses."""
    unsorted = replace(n, tails=n.tails[::-1], heads=n.heads[::-1])
    keep = [0, 2]
    no_reverse = replace(n, tails=n.tails[keep], heads=n.heads[keep], capacities=n.capacities[keep])
    return unsorted, no_reverse


class TestVerifyFlow:
    def test_solver_output_verifies(self):
        n = net(4, [(0, 1, 2), (1, 2, 1), (1, 3, 1), (2, 3, 2)])
        res = max_flow(n)
        assert flow_violation(n, res) is None

    def test_over_capacity_detected(self):
        n = net(2, [(0, 1, 1)])
        res = max_flow(n)
        # Still skew-symmetric, so only the bound on slot 0 -> 1 fails.
        bad = replace(res, flows=res.flows * 2)
        assert "capacity" in flow_violation(n, bad)

    def test_broken_conservation_detected(self):
        n = net(3, [(0, 1, 2), (1, 2, 2)])
        res = max_flow(n)
        assert res.flows.tolist() == [2, -2, 2, -2]
        bad = replace(res, flows=np.array([2, -2, 1, -1]))
        assert "conservation" in flow_violation(n, bad)

    def test_skew_symmetry_violation_detected(self):
        n = net(3, [(0, 1, 2), (1, 2, 2)])
        res = max_flow(n)
        # Slot 1 -> 0 no longer carries minus the flow of slot 0 -> 1.
        bad = replace(res, flows=np.array([2, 0, 2, -2]))
        assert "skew-symmetric" in flow_violation(n, bad)

    def test_non_canonical_network_detected(self):
        n = net(3, [(0, 1, 2), (1, 2, 2)])
        res = max_flow(n)
        unsorted, no_reverse = non_canonical(n)
        assert "canonical" in flow_violation(unsorted, res)
        no_reverse_res = replace(res, flows=res.flows[[0, 2]])
        assert "canonical" in flow_violation(no_reverse, no_reverse_res)

    def test_denominator_mismatch_detected(self):
        n = net(2, [(0, 1, Fraction(1, 2))])
        res = max_flow(n)
        bad = replace(res, denominator=4)
        assert "denominator" in flow_violation(n, bad)

    def test_bad_cut_detected(self):
        n = net(2, [(0, 1, 1)])
        res = max_flow(n)
        bad = replace(res, source_side=np.array([True, True]))
        assert "separate" in flow_violation(n, bad)
        short = replace(res, source_side=np.array([True]))
        assert "node count" in flow_violation(n, short)


def random_network_cases(count, max_nodes=10, max_cap=9, seed=0x5EED):
    state = seed
    for _ in range(count):

        def rand(bound):
            nonlocal state
            state = state * 6364136223846793005 + 1442695040888963407 & (1 << 64) - 1
            return (state >> 33) % bound

        num_nodes = 2 + rand(max_nodes - 1)
        source = rand(num_nodes)
        sink = rand(num_nodes)
        while sink == source:
            sink = rand(num_nodes)
        arcs = []
        for _ in range(rand(2 * max_nodes + 1)):
            t = rand(num_nodes)
            h = rand(num_nodes)
            if t != h:
                arcs.append((t, h, Fraction(rand(max_cap + 1))))
        yield num_nodes, arcs, source, sink


class TestAgainstBruteForce:
    def test_random_small_networks(self):
        for num_nodes, arcs, source, sink in random_network_cases(300):
            network = network_from_triples(num_nodes, arcs, source, sink)
            res = max_flow(network)
            expected = brute_min_cut(
                num_nodes,
                [a[0] for a in arcs],
                [a[1] for a in arcs],
                [a[2] for a in arcs],
                source,
                sink,
            )
            assert res.value == expected
            assert flow_violation(network, res) is None


@st.composite
def tiny_networks(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    arc_count = draw(st.integers(min_value=0, max_value=10))
    arcs = []
    for _ in range(arc_count):
        t = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        h = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if t != h:
            num = draw(st.integers(min_value=0, max_value=12))
            den = draw(st.integers(min_value=1, max_value=4))
            arcs.append((t, h, Fraction(num, den)))
    return num_nodes, arcs


@settings(max_examples=60, deadline=None)
@given(tiny_networks(), st.data())
def test_adding_an_arc_never_decreases_value(case, data):
    num_nodes, arcs = case
    base = network_from_triples(num_nodes, arcs, 0, num_nodes - 1)
    before = max_flow(base).value
    t = data.draw(st.integers(min_value=0, max_value=num_nodes - 2))
    h = data.draw(st.integers(min_value=t + 1, max_value=num_nodes - 1))
    cap = Fraction(data.draw(st.integers(min_value=0, max_value=9)))
    bigger = network_from_triples(num_nodes, arcs + [(t, h, cap)], 0, num_nodes - 1)
    assert max_flow(bigger).value >= before


@settings(max_examples=60, deadline=None)
@given(tiny_networks())
def test_duality_always(case):
    num_nodes, arcs = case
    network = network_from_triples(num_nodes, arcs, 0, num_nodes - 1)
    res = max_flow(network)
    assert flow_violation(network, res) is None


@pytest.fixture
def dinic_calls(monkeypatch):
    """Records each call of the Python-int Dinic, the exact fallback path."""
    calls = []
    real = kernels.max_flow_int

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(kernels, "max_flow_int", spy)
    return calls


def both_paths(network, dinic_calls):
    """The network's flow on the scipy path, then with the guard tripped."""
    fast = max_flow(network)
    assert not dinic_calls, "expected the scipy path"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maxflow, "_INT32_LIMIT", 0)
        exact = max_flow(network)
    assert dinic_calls, "expected the Python-int path"
    dinic_calls.clear()
    return fast, exact


def assert_paths_agree(network, fast, exact):
    assert fast.value == exact.value
    assert fast.source_side.tolist() == exact.source_side.tolist()
    assert flow_violation(network, fast) is None
    assert flow_violation(network, exact) is None


def flow_network(g):
    """solve's FlowNetwork on the residual of g."""
    peel = peel_heavy_triangles(g)
    w = initial_weight(peel.residual)
    return build_network(peel.residual, w, peel.deficiency)


def rmd40(seed):
    return generate(GenSpec("random-min-degree", 40, Fraction(7, 10), seed))


def auxiliary_flow_networks():
    """(label, FlowNetwork) of solve on K_n minus a Hamilton cycle (n <= 20)
    and on random-min-degree n=40 at 7/10."""
    graphs = [(f"K{n}-H", complete_minus_hamilton(n)) for n in range(7, 21)]
    graphs += [(f"rmd40 7/10 seed {seed}", rmd40(seed)) for seed in range(4)]
    for label, g in graphs:
        yield label, flow_network(g)


def auxiliary_networks():
    """(label, arc network, link-slot mask) of the `auxiliary_flow_networks`."""
    for label, network in auxiliary_flow_networks():
        arcnet, link_slots = network.to_arc_network()
        yield label, arcnet, link_slots


def test_link_slots_list_each_link_once_in_order():
    # Links are enumerated unsorted; the CSR sort of the arc network is the
    # one place they are ordered.
    for label, network in auxiliary_flow_networks():
        arcnet, link_slots = network.to_arc_network()
        m = network.residual.m
        tails, heads = arcnet.tails, arcnet.heads
        slots = list(zip(tails[link_slots].tolist(), heads[link_slots].tolist()))
        assert slots == brute_links(network.residual), label
        assert int(link_slots.sum()) == len(network.links), label
        assert link_slots[(tails < heads) & (heads < m)].all(), label


def supply(network):
    """The total capacity out of the source, as a Python int."""
    row = network.indptr[network.source : network.source + 2]
    return sum(network.capacities[row[0] : row[1]].tolist())


class TestPaths:
    def test_random_networks_agree(self, dinic_calls):
        # The test_c7 networks: parallel, antiparallel and zero-capacity arcs.
        kinds = Counter()
        for num_nodes, arcs, source, sink in random_network_cases(1000, seed=0xACCE97):
            if not arcs:
                continue  # an empty network takes the Python path at once
            network = network_from_triples(num_nodes, arcs, source, sink)
            pairs = [(t, h) for t, h, _ in arcs]
            kinds["parallel"] += len(set(pairs)) < len(pairs)
            kinds["antiparallel"] += any((h, t) in pairs for t, h in pairs)
            kinds["zero"] += any(c == 0 for _, _, c in arcs)
            fast, exact = both_paths(network, dinic_calls)
            assert_paths_agree(network, fast, exact)
            assert fast.flows.dtype == np.int64 and exact.flows.dtype == object
        assert min(kinds.values()) > 100, kinds

    def test_auxiliary_networks_agree(self, dinic_calls):
        # Both are Dinic over the same slots; on these networks they find the
        # same flow on every link, so solve's transfers do not depend on the
        # path. Their capacities are int32, and both paths give int64 flows.
        for label, arcnet, link_slots in auxiliary_networks():
            fast, exact = both_paths(arcnet, dinic_calls)
            assert_paths_agree(arcnet, fast, exact)
            assert fast.flows.dtype == exact.flows.dtype == np.int64, label
            net_fast = fast.flows[link_slots]
            net_exact = exact.flows[link_slots]
            assert net_fast.tolist() == net_exact.tolist(), label

    def test_self_loop_and_zero_arcs(self, dinic_calls):
        network = net(3, [(0, 0, 4), (0, 1, 3), (1, 1, 2), (1, 2, 0), (1, 2, 2), (0, 2, 0)])
        # The self-loops are dropped, the two 1 -> 2 arcs merged, and every
        # slot has its reverse.
        slots = list(zip(network.tails.tolist(), network.heads.tolist()))
        assert slots == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert network.capacities.tolist() == [3, 0, 0, 2, 0, 0]
        fast, exact = both_paths(network, dinic_calls)
        assert_paths_agree(network, fast, exact)
        assert fast.value == 2
        assert fast.flows.tolist() == exact.flows.tolist() == [2, 0, -2, 2, 0, -2]

    def test_parallel_arcs_merge_into_one_slot(self, dinic_calls):
        network = net(3, [(0, 1, 2), (0, 1, 5), (1, 0, 4), (1, 2, 6), (0, 1, 1)])
        slots = list(zip(network.tails.tolist(), network.heads.tolist()))
        assert slots == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert network.capacities.tolist() == [8, 4, 6, 0]
        res = max_flow(network)
        assert not dinic_calls
        assert res.flows.tolist() == [6, -6, 6, -6]
        assert flow_violation(network, res) is None

    def test_flow_on_other_slots_is_not_read(self, dinic_calls, monkeypatch):
        # A flow matrix whose structure differs from the network's slots
        # must stop the run, never be read slot by slot.
        from scipy.sparse import csgraph

        real = csgraph.maximum_flow

        def shifted(matrix, source, sink, method):
            result = real(matrix, source, sink, method=method)
            flow = result.flow.copy()
            flow.indices = np.roll(flow.indices, 1)
            return SimpleNamespace(flow=flow, flow_value=result.flow_value)

        monkeypatch.setattr(csgraph, "maximum_flow", shifted)
        network = net(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        with pytest.raises(AssertionError, match="other slots"):
            max_flow(network)
        assert not dinic_calls

    @pytest.mark.parametrize("limit", [maxflow._INT32_LIMIT, 0])
    def test_non_canonical_network_rejected_on_both_paths(self, limit, monkeypatch):
        monkeypatch.setattr(maxflow, "_INT32_LIMIT", limit)
        unsorted, no_reverse = non_canonical(net(3, [(0, 1, 2), (1, 2, 2)]))
        with pytest.raises(ValueError, match="CSR order"):
            max_flow(unsorted)
        with pytest.raises(ValueError, match="no reverse slot"):
            max_flow(no_reverse)

    def test_guard_boundary(self, dinic_calls):
        # Path 0 -> 1 -> 2: the largest capacity plus the source's total.
        def path(a, b):
            return ArcNetwork.from_arcs(3, [0, 1], [1, 2], [a, b], 0, 2)

        assert max_flow(path(2**30 - 1, 2**30)).value == 2**30 - 1
        assert not dinic_calls
        assert max_flow(path(2**30, 2**30)).value == 2**30
        assert len(dinic_calls) == 1

    def test_guard_sums_parallel_arcs(self, dinic_calls):
        # Each arc alone is 2**29, but the merged entry 0 -> 1 is 2**30, and
        # 2**30 + 2**30 reaches the bound.
        network = ArcNetwork.from_arcs(3, [0, 0, 1], [1, 1, 2], [2**29, 2**29, 1], 0, 2)
        assert network.capacities.tolist() == [2**30, 0, 1, 0]
        assert max_flow(network).value == 1
        assert len(dinic_calls) == 1


class TestInt32Capacities:
    def test_auxiliary_capacities_are_wrapped_not_copied(self, monkeypatch):
        from scipy.sparse import csgraph

        matrices = []
        real = csgraph.maximum_flow

        def spy(matrix, *args, **kwargs):
            matrices.append(matrix)
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(csgraph, "maximum_flow", spy)
        for label, arcnet, _ in auxiliary_networks():
            caps = arcnet.capacities
            fits = maxflow.fits_int32(
                int(caps.max()), supply(arcnet), caps.size, arcnet.num_nodes
            )
            assert fits and caps.dtype == np.int32, label
            max_flow(arcnet)
            assert np.shares_memory(matrices.pop().data, caps), label

    def test_network_past_the_guard_keeps_int64(self, dinic_calls):
        # The same graph with the link capacity set so that max C + S ends
        # just below the bound, then at it.
        network = flow_network(complete_minus_hamilton(8))
        arcnet, _ = network.to_arc_network()
        limit = maxflow._INT32_LIMIT - supply(arcnet)
        assert limit > int(np.abs(network.terminals).max())
        results = []
        for link_capacity, dtype in [(limit - 1, np.int32), (limit, np.int64)]:
            arcnet, _ = replace(network, link_capacity=link_capacity).to_arc_network()
            caps = arcnet.capacities
            assert caps.dtype == dtype and int(caps.max()) == link_capacity
            res = max_flow(arcnet)
            assert res.flows.dtype == np.int64
            assert flow_violation(arcnet, res) is None
            results.append(res)
        assert len(dinic_calls) == 1
        assert results[0].value == results[1].value
        assert results[0].source_side.tolist() == results[1].source_side.tolist()


@pytest.fixture
def search_calls(monkeypatch):
    """Records each call of scipy's breadth-first search, the cut search."""
    from scipy.sparse import csgraph

    calls = []
    real = csgraph.breadth_first_order

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "breadth_first_order", spy)
    return calls


def assert_source_alone(network, res):
    assert res.value * res.denominator == supply(network)
    assert np.flatnonzero(res.source_side).tolist() == [network.source]
    assert flow_violation(network, res) is None


class TestSaturatingFlowSkipsSearch:
    @pytest.mark.parametrize("n", range(13, 21))
    def test_saturating_auxiliary_networks(self, n, search_calls, dinic_calls):
        # K_n minus a Hamilton cycle saturates from n = 13 on.
        arcnet, _ = flow_network(complete_minus_hamilton(n)).to_arc_network()
        assert_source_alone(arcnet, max_flow(arcnet))
        assert not search_calls and not dinic_calls

    def test_arc_into_the_source(self, search_calls, dinic_calls):
        # 1 -> 0 and 2 -> 0 put their zero reverses in the source's row;
        # the flow saturates 0 -> 1 and leaves both arcs into the source idle.
        network = ArcNetwork.from_arcs(4, [0, 1, 1, 2], [1, 0, 3, 0], [2, 5, 3, 1], 0, 3)
        assert network.heads[network.tails == 0].tolist() == [1, 2]
        res = max_flow(network)
        assert res.value == 2
        assert_source_alone(network, res)
        assert not search_calls and not dinic_calls

    @pytest.mark.parametrize(
        "graph, arg",
        [(complete_minus_hamilton, n) for n in range(7, 13)] + [(rmd40, seed) for seed in range(2)],
    )
    def test_cut_networks_still_search(self, graph, arg, search_calls, dinic_calls):
        # K_n minus a Hamilton cycle gives a cut up to n = 12.
        arcnet, _ = flow_network(graph(arg)).to_arc_network()
        res = max_flow(arcnet)
        assert res.value * res.denominator < supply(arcnet)
        assert search_calls == [arcnet.source] and not dinic_calls
        assert res.source_side.sum() > 1
        assert flow_violation(arcnet, res) is None


class TestOneDerivation:
    """The value, the cut and the duality check come from the flows alone, so
    the Python path skips the search on a saturating flow and finds the
    scipy path's cut otherwise."""

    @pytest.mark.parametrize("n", range(13, 21))
    def test_saturating_python_path(self, n, search_calls, dinic_calls, monkeypatch):
        arcnet, _ = flow_network(complete_minus_hamilton(n)).to_arc_network()
        monkeypatch.setattr(maxflow, "_INT32_LIMIT", 0)
        assert_source_alone(arcnet, max_flow(arcnet))
        assert not search_calls and len(dinic_calls) == 1

    @pytest.mark.parametrize(
        "graph, arg",
        [(complete_minus_hamilton, n) for n in range(7, 13)] + [(rmd40, seed) for seed in range(2)],
    )
    def test_cut_python_path(self, graph, arg, search_calls, dinic_calls):
        arcnet, _ = flow_network(graph(arg)).to_arc_network()
        fast, exact = both_paths(arcnet, dinic_calls)
        assert search_calls == [arcnet.source] * 2
        assert exact.source_side.tolist() == fast.source_side.tolist()
        assert flow_violation(arcnet, fast) is None
        assert flow_violation(arcnet, exact) is None

    @pytest.mark.parametrize("limit", [maxflow._INT32_LIMIT, 0])
    @pytest.mark.parametrize(
        "flows, message",
        [
            # Valid but not maximum: an augmenting path is left.
            ([0, 0, 0, 0, 0, 0], "the sink is reachable"),
            # Node 2 keeps a unit: the cut {0, 2} carries 1, the source sends 2.
            ([1, 1, -1, 1, -1, -1], "value 2 vs cut 1"),
        ],
    )
    def test_bad_flow_trips_the_check(self, limit, flows, message, monkeypatch):
        network = net(4, [(0, 1, 1), (0, 2, 2), (1, 3, 1)], sink=3)
        monkeypatch.setattr(maxflow, "_INT32_LIMIT", limit)
        monkeypatch.setattr(maxflow, "_scipy_flows", lambda *args: np.array(flows))
        monkeypatch.setattr(kernels, "max_flow_int", lambda *args: flows)
        with pytest.raises(AssertionError, match=message):
            max_flow(network)


def networkx_value(network):
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(range(network.num_nodes))
    arcs = zip(network.tails.tolist(), network.heads.tolist(), network.capacities.tolist())
    for t, h, c in arcs:
        if g.has_edge(t, h):
            g[t][h]["capacity"] += c
        else:
            g.add_edge(t, h, capacity=c)
    return nx.maximum_flow_value(g, network.source, network.sink)


class TestAgainstNetworkx:
    def test_mid_size_random_networks(self, dinic_calls):
        rng = random.Random(0x4E7)
        for _ in range(20):
            num_nodes = rng.randrange(30, 61)
            arcs = []
            while len(arcs) < 8 * num_nodes:
                t, h = rng.randrange(num_nodes), rng.randrange(num_nodes)
                if t != h:
                    arcs.append((t, h, rng.randrange(1000)))
            network = network_from_triples(num_nodes, arcs, 0, num_nodes - 1)
            fast, exact = both_paths(network, dinic_calls)
            assert_paths_agree(network, fast, exact)
            assert fast.value == networkx_value(network)

    def test_auxiliary_networks(self, dinic_calls):
        for label, arcnet, _ in auxiliary_networks():
            if arcnet.num_nodes > 200:
                continue
            expected = networkx_value(arcnet)
            assert max_flow(arcnet).value * arcnet.denominator == expected, label
